// Rendezvous protocol benchmark (real runtime, not the simulator).
//
// A two-rank one-directional ping-pong: rank 1 posts its receive and
// releases rank 0 with a small token, and only then does rank 0 send the
// payload — the deterministic posted-receive pattern the zero-copy
// rendezvous path is built for. The same loop runs twice: once with the
// rendezvous threshold forced above every message (the buffered-eager
// double-copy path through the payload pool) and once with the default
// threshold (single copy straight into the posted receive buffer).
//
// A contiguous payload and a stride-2 noncontiguous payload are measured
// separately: the contiguous case drops a memcpy, the strided case drops
// the intermediate staging buffer (gather and scatter still both run).
// The run fails (exit 1, "pass": false) if any timed rendezvous-run send
// misses the zero-copy path, or if the contiguous steady-state speedup
// drops below 1.5x.
//
// Results go to stdout as a table and to BENCH_rendezvous.json.
#include <cstdio>
#include <limits>
#include <vector>

#include "bench/common.hpp"
#include "runtime/comm.hpp"

using namespace nncomm;
using dt::Datatype;
using rt::Comm;
using rt::Request;
using rt::World;

namespace {

constexpr std::size_t kDoubles = 512 * 1024;  // 4 MiB payload
constexpr int kWarmup = 5;
constexpr int kIters = 50;
constexpr int kDataTag = 7;
constexpr int kTokenTag = 8;

constexpr std::size_t kEagerAlways = std::numeric_limits<std::size_t>::max();

/// Counters are summed over both ranks: the eager copy-out runs on the
/// receiver, so rank 0's counters alone would hide it.
struct Run {
    double steady_ms = 0.0;          ///< per-iteration (one payload, one token)
    std::uint64_t zero_copy = 0;     ///< rt_zero_copy_msgs
    std::uint64_t bytes_copied = 0;  ///< rt_bytes_copied
    std::uint64_t payload_allocs = 0;
    std::uint64_t pool_hits = 0;
};

/// One-directional posted ping-pong. Only rank 0 sends payloads to rank 1,
/// and rank 1 has consumed the previous payload before its token releases
/// the next one, so nothing of rank 0's is in flight to rank 1 when the
/// payload fires: the runtime's per-lane FIFO guard never forces it
/// eager. The token trip is identical under both protocols, so it cancels
/// out of the comparison.
Run pingpong(std::size_t threshold, const Datatype& type, std::size_t count) {
    Run out;
    StatCounters stats[2];
    World w(2);
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold);
        // Extent covers the strided layout; values only land on the stride.
        std::vector<double> buf(type.extent() / sizeof(double) * count, 1.0);

        auto exchange = [&] {
            int token = 1;
            if (c.rank() == 0) {
                c.recv_n(&token, 1, 1, kTokenTag);  // rank 1's receive is posted
                c.send(buf.data(), count, type, 1, kDataTag);
            } else {
                Request r = c.irecv(buf.data(), count, type, 0, kDataTag);
                c.send_n(&token, 1, 0, kTokenTag);
                c.wait(r);
            }
        };

        for (int it = 0; it < kWarmup; ++it) exchange();  // fill pool, warm caches
        c.barrier();
        c.reset_stats();
        benchutil::Stopwatch sw;
        for (int it = 0; it < kIters; ++it) exchange();
        const double ms = sw.ms() / kIters;
        stats[c.rank()] = c.counters();
        c.barrier();
        if (c.rank() == 0) out.steady_ms = ms;
    });
    stats[0] += stats[1];
    out.zero_copy = stats[0].rt_zero_copy_msgs;
    out.bytes_copied = stats[0].rt_bytes_copied;
    out.payload_allocs = stats[0].rt_payload_allocs;
    out.pool_hits = stats[0].rt_pool_hits;
    return out;
}

}  // namespace

int main() {
    const Datatype contig = Datatype::float64();
    const Datatype strided = Datatype::vector(kDoubles, 1, 2, Datatype::float64());
    const std::size_t bytes = kDoubles * sizeof(double);

    const Run eager_c = pingpong(kEagerAlways, contig, kDoubles);
    const Run rdv_c = pingpong(rt::kDefaultRendezvousThreshold, contig, kDoubles);
    const Run eager_s = pingpong(kEagerAlways, strided, 1);
    const Run rdv_s = pingpong(rt::kDefaultRendezvousThreshold, strided, 1);

    const double speedup_c = rdv_c.steady_ms > 0.0 ? eager_c.steady_ms / rdv_c.steady_ms : 0.0;
    const double speedup_s = rdv_s.steady_ms > 0.0 ? eager_s.steady_ms / rdv_s.steady_ms : 0.0;
    // Every timed send of a rendezvous run must take the zero-copy path,
    // and no send of an eager run may; otherwise the comparison measures
    // something else.
    const auto iters = static_cast<std::uint64_t>(kIters);
    const bool zero_copy_ok = rdv_c.zero_copy == iters && rdv_s.zero_copy == iters &&
                              eager_c.zero_copy == 0 && eager_s.zero_copy == 0;
    const bool speedup_ok = speedup_c >= 1.5;
    const bool pass = zero_copy_ok && speedup_ok;

    std::printf("== Rendezvous vs buffered eager: pre-posted 4 MiB ping-pong ==\n");
    std::printf("2 ranks, %d steady iterations after %d warmup\n\n", kIters, kWarmup);
    benchutil::Table t({"Layout", "Protocol", "Per-iter (ms)", "MB/s",
                        "zero-copy msgs", "bytes copied"});
    auto mbps = [&](double ms) {
        return ms > 0.0 ? static_cast<double>(bytes) / (ms * 1e3) : 0.0;  // MB/s
    };
    auto row = [&](const char* layout, const char* proto, const Run& r) {
        t.add_row({layout, proto, benchutil::fmt(r.steady_ms, 3),
                   benchutil::fmt(mbps(r.steady_ms), 0), std::to_string(r.zero_copy),
                   std::to_string(r.bytes_copied)});
    };
    row("contiguous", "buffered eager", eager_c);
    row("contiguous", "rendezvous", rdv_c);
    row("stride-2", "buffered eager", eager_s);
    row("stride-2", "rendezvous", rdv_s);
    t.print();

    std::printf("\nevery timed rendezvous send zero-copy: %s\n", zero_copy_ok ? "PASS" : "FAIL");
    std::printf("contiguous speedup: %.2fx (require >= 1.50x): %s\n", speedup_c,
                speedup_ok ? "PASS" : "FAIL");
    std::printf("strided speedup:    %.2fx\n", speedup_s);
    std::printf("buffered-eager pool in steady state: payload_allocs=%llu pool_hits=%llu\n",
                static_cast<unsigned long long>(eager_c.payload_allocs),
                static_cast<unsigned long long>(eager_c.pool_hits));

    FILE* f = std::fopen("BENCH_rendezvous.json", "w");
    if (f) {
        auto emit = [&](const char* name, const Run& r, bool last) {
            std::fprintf(f,
                         "    \"%s\": { \"per_iter_ms\": %.6f, \"zero_copy_msgs\": %llu, "
                         "\"bytes_copied\": %llu, \"payload_allocs\": %llu, "
                         "\"pool_hits\": %llu }%s\n",
                         name, r.steady_ms, static_cast<unsigned long long>(r.zero_copy),
                         static_cast<unsigned long long>(r.bytes_copied),
                         static_cast<unsigned long long>(r.payload_allocs),
                         static_cast<unsigned long long>(r.pool_hits), last ? "" : ",");
        };
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"rendezvous\",\n");
        std::fprintf(f, "  \"payload_bytes\": %llu,\n",
                     static_cast<unsigned long long>(bytes));
        std::fprintf(f, "  \"steady_iterations\": %d,\n", kIters);
        std::fprintf(f, "  \"runs\": {\n");
        emit("contiguous_eager", eager_c, false);
        emit("contiguous_rendezvous", rdv_c, false);
        emit("strided_eager", eager_s, false);
        emit("strided_rendezvous", rdv_s, true);
        std::fprintf(f, "  },\n");
        std::fprintf(f, "  \"contiguous_speedup\": %.4f,\n", speedup_c);
        std::fprintf(f, "  \"strided_speedup\": %.4f,\n", speedup_s);
        std::fprintf(f, "  \"pass\": %s\n", pass ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("\nwrote BENCH_rendezvous.json\n");
    }
    return pass ? 0 : 1;
}
