// One-sided RMA persistent plans vs the two-sided alltoallw schedules.
//
// The put-based plan (coll/persistent.cpp RMA branch) exchanges window
// offsets once at setup; every steady-state round is then fence, fused
// pack+puts, fence, unpacks — no envelopes, no matching, no CTS. This
// bench quantifies that on the paper's nonuniform shapes and attests the
// structural claim with runtime counters.
//
// Measurements:
//   1. Netsim, quiet uniform cluster with memory copies and the rendezvous
//      handshake priced: per-iteration latency of the RMA schedule vs the
//      best two-sided schedule (binned / round-robin) on
//        - the Fig. 15 ring-neighbor shape (2 real neighbors, zeros
//          elsewhere) across system sizes,
//        - a Fig. 16-like irregular ghost pattern (rank-dependent volumes,
//          near and far neighbors),
//        - a uniform all-to-all sweep (reported, not gated: with every
//          edge equal the two-sided schedules have no zero-size or
//          nonuniformity penalty to pay, so parity is the expectation).
//   2. Real threaded runtime: steady-state executes of an RMA
//      persistent plan, counter-attested — zero lane deliveries, zero
//      zero-copy matches, puts and two fences per execute — plus measured
//      per-execute time against the two-sided persistent plan.
//
// Gate ("pass" in BENCH_rma.json, exit code otherwise): the RMA schedule
// beats the best two-sided schedule at every gated size on both nonuniform
// shapes, and the steady-state counter attestation holds.
//
// `--smoke` runs the simulated gates at one size plus the attestation,
// writes no JSON.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "coll/persistent.hpp"
#include "netsim/programs.hpp"
#include "runtime/comm.hpp"

using namespace nncomm;
using benchutil::Table;

namespace {

constexpr int kIterations = 50;

/// Quiet cluster with the protocol costs that matter priced: memcpy at
/// 10 GB/s and a 20 us CTS round trip above 32 KiB.
sim::ClusterConfig protocol_cluster(int nprocs) {
    sim::ClusterConfig c = sim::make_uniform_cluster(nprocs);
    c.copy_us_per_byte = 0.0001;
    c.rendezvous_handshake_us = 20.0;
    c.rendezvous_threshold = 32 * 1024;
    return c;
}

/// Fig. 16-like irregular ghost exchange: near neighbors carry
/// rank-dependent wide halos, every fourth rank also talks to a far
/// neighbor, everything else is zero.
sim::AlltoallwWorkload make_irregular_workload(int nprocs) {
    sim::AlltoallwWorkload wl;
    wl.nprocs = nprocs;
    wl.volume.assign(static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs), 0);
    for (int r = 0; r < nprocs; ++r) {
        const int succ = (r + 1) % nprocs;
        const int pred = (r + nprocs - 1) % nprocs;
        wl.vol(r, succ) = 48 * 1024 + static_cast<std::uint64_t>(r % 5) * 16 * 1024;
        wl.vol(r, pred) = 40 * 1024 + static_cast<std::uint64_t>(r % 3) * 8 * 1024;
        if (r % 4 == 0 && nprocs > 8) {
            wl.vol(r, (r + nprocs / 2) % nprocs) = 12 * 1024;
        }
    }
    return wl;
}

sim::AlltoallwWorkload make_uniform_workload(int nprocs, std::uint64_t bytes) {
    sim::AlltoallwWorkload wl;
    wl.nprocs = nprocs;
    wl.volume.assign(static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs),
                     bytes);
    for (int r = 0; r < nprocs; ++r) wl.vol(r, r) = 0;
    return wl;
}

struct SimPoint {
    int nprocs = 0;
    double rma_us = 0.0;
    double binned_us = 0.0;
    double rr_us = 0.0;
    double best_two_sided() const { return std::min(binned_us, rr_us); }
};

SimPoint run_sim(const sim::AlltoallwWorkload& base, int nprocs) {
    sim::AlltoallwWorkload wl = base;
    wl.iterations = kIterations;
    const sim::ClusterConfig cluster = protocol_cluster(nprocs);
    SimPoint p;
    p.nprocs = nprocs;
    auto run = [&](sim::AlltoallwSchedule s) {
        return sim::Simulator(cluster)
                   .run(sim::alltoallw_program(cluster, wl, s))
                   .makespan_us /
               kIterations;
    };
    p.rma_us = run(sim::AlltoallwSchedule::Rma);
    p.binned_us = run(sim::AlltoallwSchedule::Binned);
    p.rr_us = run(sim::AlltoallwSchedule::RoundRobin);
    return p;
}

struct RealRun {
    bool rma_selected = false;
    bool counters_ok = false;
    std::uint64_t puts = 0;
    std::uint64_t fences = 0;
    std::uint64_t deliveries = 0;
    double rma_ms_per_exec = 0.0;
    double two_sided_ms_per_exec = 0.0;
};

/// Steady-state executes of an RMA-forced vs a rendezvous-forced persistent
/// plan on the real runtime (ring-neighbor shape, 16 KiB per edge), with
/// the counter attestation on the RMA side.
RealRun run_real(int nprocs) {
    constexpr std::size_t kBytes = 16 * 1024;
    constexpr int kWarm = 2, kTimed = 20;
    RealRun out;
    rt::World w(nprocs);
    w.run([&](rt::Comm& c) {
        const int r = c.rank();
        const auto n = static_cast<std::size_t>(c.size());
        std::vector<std::size_t> scounts(n, 0), rcounts(n, 0);
        std::vector<std::ptrdiff_t> sdispls(n, 0), rdispls(n, 0);
        std::vector<dt::Datatype> types(n, dt::Datatype::byte());
        const auto succ = static_cast<std::size_t>((r + 1) % nprocs);
        const auto pred = static_cast<std::size_t>((r + nprocs - 1) % nprocs);
        scounts[succ] = kBytes;
        scounts[pred] = kBytes;
        sdispls[pred] = static_cast<std::ptrdiff_t>(kBytes);
        rcounts[pred] = kBytes;
        rcounts[succ] = kBytes;
        rdispls[succ] = static_cast<std::ptrdiff_t>(kBytes);
        std::vector<std::uint8_t> src(2 * kBytes), dst(2 * kBytes, 0);
        for (std::size_t i = 0; i < src.size(); ++i) {
            src[i] = static_cast<std::uint8_t>((static_cast<std::size_t>(r) * 131 + i) & 0xff);
        }

        coll::AlltoallwPlan rma_plan(c, scounts, sdispls, types, rcounts, rdispls, types,
                                     coll::PlanTransport::Rma);
        coll::AlltoallwPlan two_plan(c, scounts, sdispls, types, rcounts, rdispls, types,
                                     coll::PlanTransport::TwoSided);
        if (c.rank() == 0) out.rma_selected = rma_plan.rma();

        for (int i = 0; i < kWarm; ++i) {
            rma_plan.execute(src.data(), dst.data());
            two_plan.execute(src.data(), dst.data());
        }

        // Counter attestation on one steady-state RMA execute.
        c.reset_stats();
        rma_plan.execute(src.data(), dst.data());
        const StatCounters cnt = c.counters();
        if (c.rank() == 0) {
            out.puts = cnt.rt_rma_puts;
            out.fences = cnt.rt_rma_fences;
            out.deliveries = cnt.rt_lane_fast_deliveries + cnt.rt_lane_overflow_deliveries;
            out.counters_ok = cnt.rt_rma_puts == 2 && cnt.rt_rma_fences == 2 &&
                              out.deliveries == 0 && cnt.rt_zero_copy_msgs == 0;
        }

        c.barrier();
        benchutil::Stopwatch sw1;
        for (int i = 0; i < kTimed; ++i) rma_plan.execute(src.data(), dst.data());
        c.barrier();
        const double rma_ms = sw1.ms() / kTimed;
        c.barrier();
        benchutil::Stopwatch sw2;
        for (int i = 0; i < kTimed; ++i) two_plan.execute(src.data(), dst.data());
        c.barrier();
        const double two_ms = sw2.ms() / kTimed;
        if (c.rank() == 0) {
            out.rma_ms_per_exec = rma_ms;
            out.two_sided_ms_per_exec = two_ms;
        }
    });
    return out;
}

void print_points(const char* title, const std::vector<SimPoint>& pts, bool gated) {
    std::printf("%s\n", title);
    Table t({"Processes", "RMA (us)", "Binned (us)", "RoundRobin (us)", "RMA/best",
             gated ? "Gate" : "-"});
    for (const SimPoint& p : pts) {
        const bool ok = p.rma_us < p.best_two_sided();
        t.add_row({std::to_string(p.nprocs), benchutil::fmt(p.rma_us, 1),
                   benchutil::fmt(p.binned_us, 1), benchutil::fmt(p.rr_us, 1),
                   benchutil::fmt(p.rma_us / p.best_two_sided(), 3),
                   gated ? (ok ? "PASS" : "FAIL") : "-"});
    }
    t.print();
    std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bool pass = true;

    std::printf("== One-sided RMA plans vs two-sided alltoallw schedules ==\n");
    std::printf("quiet uniform cluster, memcpy 10 GB/s, 20 us handshake above 32 KiB\n\n");

    // Fig. 15 ring-neighbor shape (nonuniform: two real edges per rank).
    const std::vector<int> fig15_sizes = smoke ? std::vector<int>{32}
                                               : std::vector<int>{8, 16, 32, 64, 128};
    std::vector<SimPoint> fig15;
    for (int n : fig15_sizes) {
        fig15.push_back(run_sim(sim::make_ring_neighbor_workload(n, 64 * 1024), n));
        pass = pass && fig15.back().rma_us < fig15.back().best_two_sided();
    }
    print_points("-- Fig. 15 ring neighbor, 64 KiB per edge (gated) --", fig15, true);

    // Fig. 16-like irregular ghost pattern (gated).
    const std::vector<int> fig16_sizes =
        smoke ? std::vector<int>{32} : std::vector<int>{16, 32, 64};
    std::vector<SimPoint> fig16;
    for (int n : fig16_sizes) {
        fig16.push_back(run_sim(make_irregular_workload(n), n));
        pass = pass && fig16.back().rma_us < fig16.back().best_two_sided();
    }
    print_points("-- Fig. 16-like irregular ghost exchange (gated) --", fig16, true);

    // Uniform all-to-all sweep (reported only).
    std::vector<SimPoint> uniform;
    if (!smoke) {
        for (std::uint64_t bytes : {std::uint64_t{1024}, std::uint64_t{16 * 1024},
                                    std::uint64_t{64 * 1024}}) {
            SimPoint p = run_sim(make_uniform_workload(16, bytes), 16);
            p.nprocs = static_cast<int>(bytes);  // column doubles as bytes here
            uniform.push_back(p);
        }
        print_points("-- uniform all-to-all, 16 procs, column = bytes/edge (ungated) --",
                     uniform, false);
    }

    // Real-runtime attestation + steady-state timing.
    const RealRun real = run_real(8);
    std::printf("-- real runtime, 8 ranks, ring neighbor 16 KiB per edge --\n");
    std::printf("steady-state execute: RMA %.4f ms, two-sided %.4f ms\n",
                real.rma_ms_per_exec, real.two_sided_ms_per_exec);
    std::printf("counters: %llu puts, %llu fences, %llu deliveries -> %s\n",
                static_cast<unsigned long long>(real.puts),
                static_cast<unsigned long long>(real.fences),
                static_cast<unsigned long long>(real.deliveries),
                real.counters_ok ? "ATTESTED" : "FAIL");
    pass = pass && real.rma_selected && real.counters_ok;

    std::printf("\nRMA gate (beats best two-sided on both nonuniform shapes, counters clean): %s\n",
                pass ? "PASS" : "FAIL");

    if (!smoke) {
        FILE* f = std::fopen("BENCH_rma.json", "w");
        if (f) {
            auto dump = [&](const char* key, const std::vector<SimPoint>& pts,
                            const char* col) {
                std::fprintf(f, "  \"%s\": [\n", key);
                for (std::size_t i = 0; i < pts.size(); ++i) {
                    std::fprintf(f,
                                 "    { \"%s\": %d, \"rma_us\": %.3f, \"binned_us\": %.3f, "
                                 "\"roundrobin_us\": %.3f }%s\n",
                                 col, pts[i].nprocs, pts[i].rma_us, pts[i].binned_us,
                                 pts[i].rr_us, i + 1 < pts.size() ? "," : "");
                }
                std::fprintf(f, "  ],\n");
            };
            std::fprintf(f, "{\n  \"bench\": \"rma_alltoallw\",\n");
            dump("fig15_ring_64KiB", fig15, "ranks");
            dump("fig16_irregular", fig16, "ranks");
            dump("uniform_16procs", uniform, "bytes");
            std::fprintf(f, "  \"real_runtime\": { \"ranks\": 8, \"rma_ms\": %.4f, "
                            "\"two_sided_ms\": %.4f, \"puts\": %llu, \"fences\": %llu, "
                            "\"deliveries\": %llu, \"rma_selected\": %s },\n",
                         real.rma_ms_per_exec, real.two_sided_ms_per_exec,
                         static_cast<unsigned long long>(real.puts),
                         static_cast<unsigned long long>(real.fences),
                         static_cast<unsigned long long>(real.deliveries),
                         real.rma_selected ? "true" : "false");
            std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
            std::fclose(f);
            std::printf("wrote BENCH_rma.json\n");
        }
    }
    return pass ? 0 : 1;
}
