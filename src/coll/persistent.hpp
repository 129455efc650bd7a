// Persistent Alltoallw plans (MPI_Alltoallw_init in spirit).
//
// The one-shot coll::alltoallw rebuilds everything on every call: a fresh
// pack engine (and its scratch buffer) per noncontiguous peer, the binning
// of peers by volume, the receive-request vector. For the repeated-scatter
// pattern the paper measures (§5.4 — the same VecScatter executed every
// solver iteration), all of that is loop-invariant. An AlltoallwPlan hoists
// it out of the loop: the plan is a cached compiled coll::Schedule — the
// binned send order, the frozen per-peer protocol decisions and the
// clear-to-send handshake are ops of the graph — plus one persistent
// CollRequest whose staging buffers and pack engines survive across
// executes.
//
//   - the binned send schedule (zero-volume peers exempted, small volumes
//     before large) is compiled once at plan time,
//   - each send peer owns a persistent staging slot and — for layouts whose
//     compiled PackPlan is not specialized — a persistent pack engine that
//     is reset(), never reconstructed, on each execute,
//   - specialized layouts (contiguous / constant-stride) pack straight into
//     the persistent slot through the plan kernels, no engine at all,
//   - packed messages go on the wire as plain bytes, so the runtime's send
//     path never builds a per-send engine either.
//
// Steady state (every execute after the first) therefore performs no
// engine constructions and no scratch allocations — which is exactly what
// the engine_builds / scratch_allocs counters folded into the Comm prove —
// and every reuse of the compiled graph is counted as a
// coll_schedule_cache_hits event.
//
// Because the executor is progress-driven, the plan is split-phase for
// free: begin() fires the schedule (receives posted, self copy done, eager
// sends gone) and returns a CollRequest handle to the plan's persistent
// execution state; test() on the handle makes overlap progress, wait()
// completes. execute() is begin().wait(). A plan is single-flight: every
// begin() must be matched by a wait() on its handle before the next one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "coll/collectives.hpp"
#include "coll/schedule.hpp"
#include "datatype/engine.hpp"

namespace nncomm::coll {

/// The transport a persistent plan lowers onto, named by its caller: there
/// is no default and no run-time override. Every rank must pass the same
/// value, since the RMA fences are collective; that is why it is never
/// derived from the traffic matrix, which a rank with no local traffic
/// cannot see.
enum class PlanTransport {
    /// Send/recv schedule graph: each peer's volume freezes eager or
    /// rendezvous, with a clear-to-send ahead of every rendezvous payload.
    /// No communicator-wide synchronization, so a rank finishes its
    /// exchange as soon as its own peers have delivered.
    TwoSided,
    /// One-sided window: offsets exchanged once at plan time, then every
    /// execute is fence, fused pack+put into the peers' regions, fence.
    /// The closing fence spans the whole communicator.
    Rma,
};

/// Persistent plan for one fixed Alltoallw shape (counts, displacements and
/// types per peer). Buffers may differ between execute() calls; the shape
/// may not. Owned and used by a single rank thread (like Comm itself).
class AlltoallwPlan {
public:
    /// Captures the shape, bins the peers and compiles the schedule for
    /// `transport`. `engine` selects the pack engine used for peers whose
    /// layout does not compile to a specialized plan kernel. The engine
    /// configuration is taken from `comm` at every execute, so config
    /// changes between executes rebuild the engines (and are counted).
    AlltoallwPlan(rt::Comm& comm, std::span<const std::size_t> sendcounts,
                  std::span<const std::ptrdiff_t> sdispls,
                  std::span<const dt::Datatype> sendtypes,
                  std::span<const std::size_t> recvcounts,
                  std::span<const std::ptrdiff_t> rdispls,
                  std::span<const dt::Datatype> recvtypes, PlanTransport transport,
                  dt::EngineKind engine = dt::EngineKind::DualContext);

    AlltoallwPlan(const AlltoallwPlan&) = delete;
    AlltoallwPlan& operator=(const AlltoallwPlan&) = delete;

    /// Runs the planned exchange with this call's buffers. Collective:
    /// every rank of the communicator must execute its plan. Statistics
    /// for the work done are folded into the Comm's counters/timers.
    void execute(const void* sendbuf, void* recvbuf) { begin(sendbuf, recvbuf).wait(); }

    /// Split-phase execute: fires the schedule (receives posted, self copy
    /// done, eligible sends gone) and returns a handle to the plan's
    /// execution state. Overlap compute, optionally poking test() on the
    /// handle, then wait() on it. The handle stays valid after the plan is
    /// destroyed. Buffer contracts as execute(). Throws if the previous
    /// begin()'s handle has not been waited.
    CollRequest begin(const void* sendbuf, void* recvbuf);

    /// True from begin() until a wait() on its handle returned.
    bool in_flight() const { return request_.in_flight(); }

    /// Cumulative statistics over all completed executes of this plan (the
    /// same numbers folded into the Comm, but isolated from other traffic).
    const StatCounters& counters() const { return request_.total(); }

    std::size_t executes() const { return request_.completions(); }
    /// Peers this rank sends to / receives from (self excluded).
    std::size_t send_peers() const { return send_peers_; }
    std::size_t recv_peers() const { return recv_peers_; }

    /// The compiled schedule (inspection / netsim lowering).
    const Schedule& schedule() const { return request_.schedule(); }

    /// True when the plan was built for PlanTransport::Rma.
    bool rma() const { return rma_; }

private:
    rt::Comm* comm_ = nullptr;
    dt::EngineKind engine_kind_;
    dt::EngineConfig engine_config_;  ///< config the engines were built with

    /// Owner handle of the cached compiled schedule and its persistent
    /// state (staging, engines, and for the RMA lowering the window over
    /// the exposed receive region, one block per source peer in rank
    /// order, which peers pack straight into).
    CollRequest request_;
    std::size_t send_peers_ = 0;
    std::size_t recv_peers_ = 0;
    bool rma_ = false;
};

}  // namespace nncomm::coll
