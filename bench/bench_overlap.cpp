// Split-phase ghost-exchange overlap benchmark (real runtime, not the
// simulator).
//
// A 2-D structured-grid relaxation sweep on a DMDA, A/B-ing the two ways
// to order one iteration's ghost exchange against its stencil compute:
//
//   blocking — global_to_local (wait for every ghost slab), then sweep all
//              owned points;
//   overlap  — global_to_local_begin (owned region is filled when it
//              returns), sweep the strictly-interior points while the
//              ghost slabs are in flight, global_to_local_end, then sweep
//              the owned-box shell. This is exactly the schedule
//              LaplacianOp::apply and MatAIJ::mult run in production.
//
// One rank is artificially skewed: it sleeps before joining each
// exchange, modeling a late neighbor (load imbalance upstream, a slow
// NIC) whose ghost slabs arrive well after everyone else's. In the
// blocking ordering every neighbor inherits that delay as idle wait time;
// in the overlapped ordering the interior phase absorbs it. Per-iteration
// barriers resync the ranks so the skew cannot pipeline away across
// iterations.
//
// Rank threads here share the host's CPUs (the runtime is threads in one
// process), so a real deployment's property "every rank computes at full
// speed on its own processor" does not hold — N compute-bound sweeps
// contend for cores and their wall time inflates with oversubscription.
// The interior phase therefore runs the real interior sweep and then
// sleeps out the remainder of a fixed kComputeMs window: off-CPU time
// models the rest of a dedicated core's compute without stealing cycles
// from other ranks. Both orderings run the identical compute structure
// (interior + pad, then shell); the only difference is where the exchange
// completes, which is exactly what the benchmark isolates. All delays are
// sleeps, not spins, for the same reason.
//
// The reported metric is the slowest non-skewed rank's median in-iteration
// time (barrier excluded; median because a shared CI host's scheduler can
// produce outlier iterations). A short settle sleep follows each barrier
// so every rank has actually left it before the iteration's work begins.
// The run fails (exit 1, "pass": false) if the blocking/overlap ratio
// drops below 1.3x. Results go to stdout and to BENCH_overlap.json.
//
// Both orderings time the DMDA's persistent two-sided ghost plan (compiled
// by the correctness check before the timed loops). The run also fails if
// any rank builds a schedule or closes an RMA fence during the timed
// loops: either would mean the numbers timed something other than that
// plan.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "petsckit/dmda.hpp"

using namespace nncomm;
using pk::DMDA;
using pk::GridBox;
using pk::Index;
using pk::Vec;

namespace {

constexpr int kRanks = 4;
constexpr Index kGrid = 512;  // 512 x 512 doubles, 2x2 process grid
constexpr int kWarmup = 3;
constexpr int kIters = 20;
constexpr int kSlowRank = 0;
constexpr double kComputeMs = 25.0;  // interior phase: real sweep + pad to this
constexpr double kSkewMs = 12.5;     // the late rank's extra delay (0.5x compute)
constexpr double kSettleMs = 1.0;    // post-barrier resync pause
constexpr double kGate = 1.3;

void delay_ms(double target_ms) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(target_ms));
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : (n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

struct Sweeper {
    const DMDA* da = nullptr;
    const double* loc = nullptr;  // ghosted array
    double* out = nullptr;        // owned-volume output

    void point(Index i, Index j) const {
        const GridBox& o = da->owned();
        const std::size_t at = static_cast<std::size_t>((j - o.ys) * o.xm + (i - o.xs));
        if (i == 0 || i == kGrid - 1 || j == 0 || j == kGrid - 1) {
            // Domain boundary: identity row (no ghost layer beyond the grid).
            out[at] = loc[da->local_index(i, j, 0)];
            return;
        }
        out[at] = 4.0 * loc[da->local_index(i, j, 0)] - loc[da->local_index(i - 1, j, 0)] -
                  loc[da->local_index(i + 1, j, 0)] - loc[da->local_index(i, j - 1, 0)] -
                  loc[da->local_index(i, j + 1, 0)];
    }
    // Strictly-interior points: the stencil touches only owned data, so
    // this sweep is legal while the ghost slabs are still in flight.
    void interior() const {
        const GridBox& o = da->owned();
        for (Index j = o.ys + 1; j < o.ys + o.ym - 1; ++j) {
            for (Index i = o.xs + 1; i < o.xs + o.xm - 1; ++i) point(i, j);
        }
    }
    // The owned-box shell: reads ghost values, must run after _end.
    void shell() const {
        const GridBox& o = da->owned();
        for (Index i = o.xs; i < o.xs + o.xm; ++i) {
            point(i, o.ys);
            if (o.ym > 1) point(i, o.ys + o.ym - 1);
        }
        for (Index j = o.ys + 1; j < o.ys + o.ym - 1; ++j) {
            point(o.xs, j);
            if (o.xm > 1) point(o.xs + o.xm - 1, j);
        }
    }
    void full() const {
        const GridBox& o = da->owned();
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) point(i, j);
        }
    }
};

/// Counter deltas over the timed loops (warmup included).
struct TimedCounters {
    std::uint64_t schedules_built = 0;
    std::uint64_t rma_fences = 0;
    std::uint64_t cache_hits = 0;
};

struct Results {
    double interior_ms = 0.0;
    double skew_ms = 0.0;
    double blocking_ms = 0.0;  // slowest non-skewed rank, mean per iteration
    double overlap_ms = 0.0;
    std::uint64_t progress_calls = 0;
    bool identical = false;
    TimedCounters timed;  ///< summed over all ranks
};

}  // namespace

int main() {
    Results res;
    double rank_block[kRanks] = {};
    double rank_ovl[kRanks] = {};
    TimedCounters rank_timed[kRanks];

    rt::World world(kRanks);
    world.run([&](rt::Comm& comm) {
        DMDA da(comm, 2, {.m = kGrid, .n = kGrid}, 1, 1, pk::Stencil::Star);
        Vec g = da.create_global();
        for (Index i = 0; i < g.local_size(); ++i) {
            g.data()[i] = 0.5 * static_cast<double>(g.range().begin + i);
        }
        std::vector<double> ghosted = da.create_local();
        std::vector<double> out(static_cast<std::size_t>(da.owned().volume()));
        Sweeper sweep{&da, ghosted.data(), out.data()};

        // Correctness: one blocking and one overlapped iteration must
        // produce identical bytes in both the ghosted array and the output.
        da.global_to_local(g, ghosted);
        sweep.full();
        std::vector<double> ghosted_ref = ghosted;
        std::vector<double> out_ref = out;
        std::fill(ghosted.begin(), ghosted.end(), 0.0);
        std::fill(out.begin(), out.end(), 0.0);
        coll::CollRequest check = da.global_to_local_begin(g, ghosted);
        sweep.interior();
        DMDA::global_to_local_end(check);
        sweep.shell();
        const bool same =
            std::memcmp(ghosted.data(), ghosted_ref.data(),
                        ghosted.size() * sizeof(double)) == 0 &&
            std::memcmp(out.data(), out_ref.data(), out.size() * sizeof(double)) == 0;
        if (comm.rank() == 0) res.identical = same;

        // Report the real sweep cost for context (it is part of, not all
        // of, the kComputeMs interior window).
        benchutil::Stopwatch cal;
        sweep.interior();
        double interior_ms = cal.ms();
        coll::allreduce(comm, &interior_ms, 1, coll::ReduceOp::Max);
        if (comm.rank() == 0) {
            res.interior_ms = interior_ms;
            res.skew_ms = kSkewMs;
        }

        // The interior phase: the real interior sweep, then off-CPU for
        // the remainder of the fixed compute window (see header comment).
        auto interior_phase = [&] {
            benchutil::Stopwatch sw;
            sweep.interior();
            const double left = kComputeMs - sw.ms();
            if (left > 0.0) delay_ms(left);
        };
        auto run_mode = [&](bool overlap, double* per_rank) {
            std::vector<double> samples;
            for (int it = -kWarmup; it < kIters; ++it) {
                comm.barrier();
                benchutil::Stopwatch sw;
                // Settle: let every rank leave the barrier before the
                // iteration's work begins (symmetric across modes).
                delay_ms(kSettleMs);
                if (comm.rank() == kSlowRank) delay_ms(kSkewMs);
                if (overlap) {
                    coll::CollRequest req = da.global_to_local_begin(g, ghosted);
                    interior_phase();
                    DMDA::global_to_local_end(req);
                    sweep.shell();
                } else {
                    da.global_to_local(g, ghosted);
                    interior_phase();
                    sweep.shell();
                }
                if (it >= 0) samples.push_back(sw.ms());
            }
            per_rank[comm.rank()] = median(std::move(samples));
        };
        const StatCounters timed_from = comm.counters();
        run_mode(/*overlap=*/false, rank_block);
        run_mode(/*overlap=*/true, rank_ovl);
        const StatCounters& now = comm.counters();
        rank_timed[comm.rank()] = {
            now.coll_schedules_built - timed_from.coll_schedules_built,
            now.rt_rma_fences - timed_from.rt_rma_fences,
            now.coll_schedule_cache_hits - timed_from.coll_schedule_cache_hits};
        comm.barrier();
        if (comm.rank() == 0) res.progress_calls = comm.counters().coll_overlap_progress_calls;
    });

    for (const TimedCounters& t : rank_timed) {
        res.timed.schedules_built += t.schedules_built;
        res.timed.rma_fences += t.rma_fences;
        res.timed.cache_hits += t.cache_hits;
    }
    const bool plan_only = res.timed.schedules_built == 0 && res.timed.rma_fences == 0;
    for (int r = 0; r < kRanks; ++r) {
        if (r == kSlowRank) continue;
        res.blocking_ms = std::max(res.blocking_ms, rank_block[r]);
        res.overlap_ms = std::max(res.overlap_ms, rank_ovl[r]);
    }
    const double speedup = res.overlap_ms > 0.0 ? res.blocking_ms / res.overlap_ms : 0.0;
    const bool pass = res.identical && plan_only && speedup >= kGate;

    std::printf("== Split-phase ghost exchange: compute/communication overlap ==\n");
    std::printf("%d ranks, %lld x %lld grid, star stencil width 1, %d iterations\n",
                kRanks, static_cast<long long>(kGrid), static_cast<long long>(kGrid), kIters);
    std::printf("rank %d skewed by %.3f ms; compute window %.1f ms/iter "
                "(real interior sweep: %.3f ms)\n\n",
                kSlowRank, res.skew_ms, kComputeMs, res.interior_ms);
    benchutil::Table t({"Ordering", "Slowest non-skewed rank (ms/iter)"});
    t.add_row({"blocking exchange, then full sweep", benchutil::fmt(res.blocking_ms, 3)});
    t.add_row({"begin / interior sweep / end / shell", benchutil::fmt(res.overlap_ms, 3)});
    t.print();
    std::printf("\nresults bit-identical across orderings: %s\n",
                res.identical ? "yes" : "NO");
    std::printf("timed loops on the persistent two-sided plan: %llu schedules built, "
                "%llu RMA fences, %llu cache hits (require 0 and 0): %s\n",
                static_cast<unsigned long long>(res.timed.schedules_built),
                static_cast<unsigned long long>(res.timed.rma_fences),
                static_cast<unsigned long long>(res.timed.cache_hits),
                plan_only ? "ok" : "FAIL");
    std::printf("overlap speedup: %.2fx (require >= %.2fx): %s\n", speedup, kGate,
                pass ? "PASS" : "FAIL");

    FILE* f = std::fopen("BENCH_overlap.json", "w");
    if (f) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"overlap\",\n");
        std::fprintf(f, "  \"ranks\": %d,\n", kRanks);
        std::fprintf(f, "  \"grid\": %lld,\n", static_cast<long long>(kGrid));
        std::fprintf(f, "  \"iterations\": %d,\n", kIters);
        std::fprintf(f, "  \"slow_rank\": %d,\n", kSlowRank);
        std::fprintf(f, "  \"skew_ms\": %.6f,\n", res.skew_ms);
        std::fprintf(f, "  \"compute_ms\": %.6f,\n", kComputeMs);
        std::fprintf(f, "  \"interior_sweep_ms\": %.6f,\n", res.interior_ms);
        std::fprintf(f, "  \"blocking_ms_per_iter\": %.6f,\n", res.blocking_ms);
        std::fprintf(f, "  \"overlap_ms_per_iter\": %.6f,\n", res.overlap_ms);
        std::fprintf(f, "  \"speedup\": %.4f,\n", speedup);
        std::fprintf(f, "  \"bit_identical\": %s,\n", res.identical ? "true" : "false");
        std::fprintf(f, "  \"ghost_plan\": \"two-sided\",\n");
        std::fprintf(f, "  \"timed_schedules_built\": %llu,\n",
                     static_cast<unsigned long long>(res.timed.schedules_built));
        std::fprintf(f, "  \"timed_rma_fences\": %llu,\n",
                     static_cast<unsigned long long>(res.timed.rma_fences));
        std::fprintf(f, "  \"timed_cache_hits\": %llu,\n",
                     static_cast<unsigned long long>(res.timed.cache_hits));
        std::fprintf(f, "  \"pass\": %s\n", pass ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("\nwrote BENCH_overlap.json\n");
    }
    return pass ? 0 : 1;
}
