// NBX-style sparse dynamic data exchange (nonblocking consensus).
//
// The metadata problem: during setup, every rank knows who it must SEND to
// (its sparse out-neighborhood), but not who sends to IT. The classic
// solution — allgather/alltoall of dense per-rank count vectors — moves
// O(p) metadata per rank and O(p^2) total, which is exactly the
// nonscalable setup phase the paper's VecScatter/DMDA construction and any
// distributed matrix assembly hit at scale.
//
// rt::sparse_exchange solves "who sends to me, and what?" with
// communication proportional to the actual neighborhood plus one O(log p)
// consensus:
//
//   1. Each rank fires nonblocking eager sends of its payloads to its
//      out-neighbors and enters the consensus wait.
//   2. Any arriving payload (wildcard-source probe on the exchange's tag
//      lane) is received and immediately answered with a zero-byte ack —
//      the explicit-acknowledgement NBX variant, standing in for MPI_Issend
//      completion semantics (our buffered-eager sends complete locally, so
//      an ack is what proves remote receipt).
//   3. Once a rank holds acks for ALL of its sends, every payload it
//      injected is known to be consumed; it starts the nonblocking
//      dissemination barrier (IBarrier) and keeps draining payloads/acks.
//   4. When the barrier completes, every rank's sends have been acked, so
//      no payload can still be in flight anywhere: the exchange is over.
//
// Wait discipline: steps 2-4 are one predicate pass — drain every queued
// payload and ack, start the barrier once all acks are in, test it — and
// the whole consensus is a single Comm::wait_until on that predicate. Every
// event a pass can wait for is a message to this rank, and every delivery
// pulses the rank's mailbox, so wait_until's spin / yield / park discipline
// (the one fences and schedules use) applies unchanged: a rank held up by
// a late peer spins for a few checks, then sleeps on its mailbox condition
// variable until the next delivery (or the timed slice) instead of
// yield-spinning. rt_sparse_probe_polls counts predicate passes, so it
// measures how often a rank looked, not how long it spun.
//
// Tags are epoch-folded on the internal collective context, so
// back-to-back exchanges (a rank can exit the consensus while a peer is
// still finishing its last barrier round) can never alias. The primitive
// is deadlock-free for empty neighborhoods: a rank with zero sends and
// zero receives enters the barrier immediately and only handshakes the
// O(log p) consensus.
//
// Consumers: VecScatter::gather_sparse (sparse-neighborhood scatter-plan
// discovery), off-process MatAIJ assembly (remote-triplet flush) — and the
// netsim mirror
// (ProgramBuilder::add_sparse_exchange) that lets the setup-cost bench
// sweep 10k+ simulated ranks.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/comm.hpp"

namespace nncomm::rt {

/// Nonblocking dissemination barrier. Construction draws one collective
/// epoch (so construction order must be collective, like every collective
/// here) and fires round 0; drive with test() until it returns true.
/// Unlike Comm::barrier, a rank can interleave arbitrary work — e.g. the
/// NBX payload drain — between progress passes.
class IBarrier {
public:
    IBarrier() = default;
    explicit IBarrier(Comm& comm);

    bool started() const { return comm_ != nullptr; }
    bool done() const { return done_; }
    /// One nonblocking progress pass; advances as many rounds as complete
    /// back-to-back. True once all ceil(log2 p) rounds have retired.
    bool test();
    /// Drives test() to completion (blocking).
    void wait();

private:
    void fire_round();

    Comm* comm_ = nullptr;
    int lane_ = 0;   ///< epoch-folded tag base; round r uses lane_ + r
    int step_ = 1;   ///< 2^round
    int round_ = 0;
    bool done_ = false;
    Request recv_;
};

/// One outgoing message of a sparse exchange. `bytes` must stay valid
/// until sparse_exchange returns (the eager send stages a copy, but the
/// call is collective and blocking anyway). Destinations must be unique;
/// dest == rank is allowed and short-circuits to a local copy.
struct SparseSend {
    int dest = -1;
    std::span<const std::byte> bytes;
};

/// One received message: everything some rank addressed to this one.
struct SparseRecv {
    int source = -1;
    std::vector<std::byte> bytes;
};

/// Collective. Returns the messages addressed to this rank, sorted by
/// source rank ascending (deterministic regardless of arrival order).
/// Zero-byte payloads are legal on both sides.
std::vector<SparseRecv> sparse_exchange(Comm& comm, std::span<const SparseSend> sends);

/// Typed convenience wrapper: exchanges vectors of a trivially copyable T
/// keyed by destination rank; returns (source, values) pairs sorted by
/// source.
template <typename T>
std::vector<std::pair<int, std::vector<T>>> sparse_exchange_t(
    Comm& comm, std::span<const std::pair<int, std::vector<T>>> sends) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<SparseSend> raw;
    raw.reserve(sends.size());
    for (const auto& [dest, vec] : sends) {
        raw.push_back({dest, std::as_bytes(std::span<const T>(vec))});
    }
    std::vector<SparseRecv> got = sparse_exchange(comm, raw);
    std::vector<std::pair<int, std::vector<T>>> out;
    out.reserve(got.size());
    for (SparseRecv& m : got) {
        NNCOMM_CHECK_MSG(m.bytes.size() % sizeof(T) == 0,
                         "sparse_exchange_t: payload size not a multiple of the element size");
        std::vector<T> v(m.bytes.size() / sizeof(T));
        if (!v.empty()) std::memcpy(v.data(), m.bytes.data(), m.bytes.size());
        out.emplace_back(m.source, std::move(v));
    }
    return out;
}

}  // namespace nncomm::rt
