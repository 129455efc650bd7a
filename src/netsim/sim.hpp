// Deterministic discrete-event simulator for rank programs.
//
// A rank program is a sequence of ops: Compute (advance the local clock),
// Send (occupy the sender for o + bytes·G, deliver after latency L) and
// Recv (block until the matching message has arrived). Sends never block
// (buffered-eager, matching the threaded runtime), so programs can be
// executed by repeated sweeps: run every rank until it blocks on a message
// not yet sent; a sweep with no progress and unfinished ranks is a
// deadlock and throws.
//
// Messages match on (source, tag) FIFO per pair, mirroring the runtime's
// matching semantics. Costs follow the runtime's protocol split: sends
// below the cluster's rendezvous_threshold are buffered eager (staging
// copy on the sender, unpack copy on the receiver), larger ones pay a
// handshake but a single copy. All times are microseconds of virtual time.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/model.hpp"

namespace nncomm::sim {

struct Op {
    enum class Kind { Compute, Send, Recv, Put, Fence };
    Kind kind = Kind::Compute;
    double compute_us = 0.0;  ///< Compute: raw cost (divided by rank speed)
    int peer = -1;            ///< Send: destination; Recv: source; Put: target
    int tag = 0;
    std::uint64_t bytes = 0;  ///< Send/Put only

    static Op compute(double us) { return Op{Kind::Compute, us, -1, 0, 0}; }
    static Op send(int to, int tag, std::uint64_t bytes) {
        return Op{Kind::Send, 0.0, to, tag, bytes};
    }
    static Op recv(int from, int tag) { return Op{Kind::Recv, 0.0, from, tag, 0}; }
    /// One-sided put: LogGP sender cost (overhead + serialization + the
    /// fused pack/copy), no handshake, no matching, no receiver-side cost.
    /// Visibility is deferred to the next Fence.
    static Op put(int to, std::uint64_t bytes) { return Op{Kind::Put, 0.0, to, 0, bytes}; }
    /// Collective epoch boundary: completes once every rank entered the
    /// same fence AND every put issued toward it has arrived.
    static Op fence() { return Op{Kind::Fence, 0.0, -1, 0, 0}; }
};

using RankProgram = std::vector<Op>;

/// Per-rank completion times plus aggregate measures.
struct SimResult {
    std::vector<double> finish_us;  ///< virtual time each rank completed
    double makespan_us = 0.0;       ///< max over ranks
    std::uint64_t messages = 0;     ///< total messages delivered
    std::uint64_t bytes = 0;        ///< total payload bytes moved
    std::uint64_t rendezvous_messages = 0;  ///< sends that rode the rendezvous cost path

    // One-sided traffic (Put/Fence ops): puts never appear in messages /
    // bytes — they move no envelopes and match nothing.
    std::uint64_t puts = 0;
    std::uint64_t put_bytes = 0;
    std::uint64_t fences = 0;  ///< collective fence epochs completed
};

class Simulator {
public:
    explicit Simulator(ClusterConfig config) : config_(std::move(config)) {
        NNCOMM_CHECK_MSG(config_.nprocs >= 1, "simulator needs at least one rank");
    }

    /// Executes one program per rank to completion and returns the timing.
    SimResult run(const std::vector<RankProgram>& programs) const;

    const ClusterConfig& config() const { return config_; }

private:
    ClusterConfig config_;
};

}  // namespace nncomm::sim
