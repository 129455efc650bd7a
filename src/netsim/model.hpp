// Cluster cost model for the discrete-event simulator.
//
// The paper's testbed was 32 Intel EM64T nodes + 32 AMD Opteron nodes (two
// processes per node -> 128 processes) on InfiniBand DDR. We model it as a
// latency/bandwidth network (LogGP-style: per-message overhead o, latency
// L, per-byte time G) plus per-rank compute-speed classes and a random
// per-operation skew term — the paper observes that combining the two
// clusters introduces natural skew (§5.3).
//
// Datatype-processing costs are modeled with the same structure the real
// engines have: per-byte packing, per-block look-ahead, and — for the
// single-context baseline — per-block re-search time whose total grows
// quadratically with message size (bytes²/(2·chunk·blocklen) blocks).
#pragma once

#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "runtime/schedule.hpp"

namespace nncomm::sim {

struct ClusterConfig {
    int nprocs = 1;

    // Network (InfiniBand-DDR-like defaults).
    double latency_us = 4.0;        ///< wire latency per message
    double overhead_us = 0.7;       ///< CPU overhead per send/recv
    double us_per_byte = 0.00075;   ///< ~1.3 GB/s effective bandwidth

    // Transfer-protocol split, mirroring the runtime's eager/rendezvous
    // design. Messages below the threshold are buffered eager: one staging
    // copy on the sender and one unpack copy on the receiver, each at
    // copy_us_per_byte. Messages at or above it pay a fixed handshake
    // (ready-to-send / clear-to-send round trip) but move their bytes in a
    // single copy. copy_us_per_byte defaults to 0 so raw configs cost
    // exactly what they always did; make_paper_testbed opts in.
    std::size_t rendezvous_threshold = 32 * 1024;
    double copy_us_per_byte = 0.0;        ///< memory-copy cost per staged byte
    double rendezvous_handshake_us = 0.0; ///< RTS/CTS round trip per rendezvous message

    // Datatype-engine costs (calibrated against the real engines' counters).
    double pack_us_per_byte = 0.0004;      ///< memcpy into the pack buffer
    double lookahead_us_per_block = 0.002; ///< signature parse per block
    double search_us_per_block = 0.002;    ///< baseline re-search per block
    double gather_us_per_block = 0.0015;   ///< hand-tuned indexed-load per run
    std::size_t pipeline_chunk = 64 * 1024;

    // Heterogeneity and noise.
    std::vector<double> speed;  ///< per-rank speed factor; empty = all 1.0
    double skew_us_mean = 0.0;  ///< exponential per-rank skew per operation
    std::uint64_t seed = 42;

    double rank_speed(int r) const {
        if (speed.empty()) return 1.0;
        NNCOMM_CHECK(r >= 0 && static_cast<std::size_t>(r) < speed.size());
        return speed[static_cast<std::size_t>(r)];
    }
};

/// The paper's testbed: `n` processes, first half on 3.6 GHz Intel nodes,
/// second half on 2.8 GHz Opterons (modeled as a per-rank speed factor),
/// with light random skew between the two halves.
ClusterConfig make_paper_testbed(int nprocs, double skew_us_mean = 15.0);

/// A homogeneous cluster with no injected skew (for microbenchmarks that
/// isolate algorithmic effects).
ClusterConfig make_uniform_cluster(int nprocs);

/// Modeled CPU time (us) to prepare one noncontiguous message of `bytes`
/// with average contiguous-block length `block_len`, using the dual-context
/// engine: linear pack + bounded look-ahead.
double pack_cost_dual_us(const ClusterConfig& c, std::uint64_t bytes, double block_len);

/// Same for the single-context baseline: linear pack + quadratic re-search
/// (one re-search per pipeline chunk, each walking all blocks already
/// packed).
double pack_cost_single_us(const ClusterConfig& c, std::uint64_t bytes, double block_len);

/// Routes the runtime's delivery engine through this cluster's latency
/// model: rt::SchedulePolicy::perturb(seed, level) plus size-dependent
/// defer passes derived from the cluster's per-message latency and
/// per-byte time, so big messages sit in flight longer than small ones —
/// the schedule shape the paper's nonuniform collectives actually face.
rt::SchedulePolicy make_schedule(const ClusterConfig& c, std::uint64_t seed, int level = 2);

}  // namespace nncomm::sim
