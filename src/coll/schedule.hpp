// Compiled schedule graphs for collective operations.
//
// Every collective in src/coll is split into two halves:
//
//   build — a pure function of (rank, size, shape) that emits a Schedule:
//     a DAG of rounds whose ops are Send / Recv / Pack / Unpack / Reduce /
//     Copy, each with explicit dependencies and a per-op rt::Protocol hint.
//     Builders perform no communication, so the netsim LogGP model lowers
//     the *same* Schedule objects into simulator programs — the predicted
//     Fig. 14/15 curves and the executable collectives can no longer drift.
//
//   execute — a progress-driven CollRequest state machine that runs the
//     schedule on the runtime's delivery engine. Receives are posted as
//     soon as their dependencies retire (so the zero-copy rendezvous path
//     keeps its posted-receive precondition), local ops and sends fire in
//     emission order, and completion is detected with the nonblocking
//     Comm::test. wait() drives the request to completion; test() performs
//     exactly one progress pass, which is what the split-phase VecScatter
//     and the overlap benches interleave with interior compute.
//
// Blocking entry points (coll::allgatherv, coll::alltoallw, coll::bcast,
// ...) are build + start + wait wrappers around the nonblocking icoll
// functions declared at the bottom, and produce byte-identical results to
// the pre-schedule implementations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "datatype/engine.hpp"

namespace nncomm::rt {
class Win;
}  // namespace nncomm::rt

namespace nncomm::coll {

// ---------------------------------------------------------------------------
// TagSpace

/// One collective invocation's tag lane. Construction draws the next
/// collective epoch from the communicator and folds it into the base via
/// rt::epoch_tag, so two schedules concurrently in flight on the same
/// communicator (e.g. an icoll overlapped with another collective) occupy
/// disjoint lanes and can never match each other's traffic. This hoists
/// the epoch_tag boilerplate previously repeated across allgatherv.cpp /
/// alltoallw.cpp / basic.cpp / persistent.cpp.
class TagSpace {
public:
    TagSpace() = default;
    TagSpace(rt::Comm& comm, int base)
        : lane_(rt::epoch_tag(base, comm.next_collective_epoch())) {}

    /// Tag for `offset` within the lane. Offsets must stay below
    /// rt::kEpochTagStride or they would bleed into the next lane.
    int tag(int offset = 0) const {
        NNCOMM_CHECK_MSG(offset >= 0 && offset < rt::kEpochTagStride,
                         "TagSpace: offset outside the epoch lane");
        return lane_ + offset;
    }
    /// Epoch-folded lane base (tag(0)).
    int lane() const { return lane_; }

private:
    int lane_ = 0;
};

// ---------------------------------------------------------------------------
// Schedule

/// Put and Fence are the one-sided ops (persistent RMA plans): a Put packs
/// its typed source with the frozen plan kernels straight into the target
/// rank's window region (fused pack+put — no staging slot, no envelope, no
/// matching), a Fence is the collective epoch boundary that rides the
/// rt::Win seq-counter completion path. Neither touches the delivery
/// engine.
enum class ScheduleOpKind : std::uint8_t { Send, Recv, Copy, Pack, Unpack, Reduce, Put, Fence };

/// Position-independent buffer reference, bound to concrete pointers at
/// CollRequest::start(sendbuf, recvbuf). `None` means "no user buffer"
/// (zero-byte synchronization tokens). `Win` offsets into an rt::Win
/// region: the *target* rank's region for a Put's `b`, this rank's own
/// region for an Unpack's `b` (the executor resolves which through the
/// op's peer).
struct BufRef {
    enum class Space : std::uint8_t { None, Send, Recv, Win };
    Space space = Space::None;
    std::ptrdiff_t offset = 0;  ///< byte offset from the space base
};

/// Type-erased reduction kernel (captured from the ireduce<T> template so
/// the executor stays non-template): applies `op` elementwise,
/// acc[i] = op(acc[i], in[i]) for i < n, in the exact order apply_op uses.
using ReduceFn = void (*)(ReduceOp, void* acc, const void* in, std::size_t n);

/// One node of the schedule DAG. `deps` lists indices of ops (always
/// earlier in the vector) that must retire before this op may run;
/// receives additionally post as early as their deps allow so rendezvous
/// senders find them. `slot` stages Pack/Unpack/Reduce/staged-Copy traffic
/// through the request's persistent staging buffers; a Send with a slot
/// puts the packed staging bytes on the wire instead of the typed `a`.
struct ScheduleOp {
    ScheduleOpKind kind = ScheduleOpKind::Send;
    int round = 0;       ///< progress-group; also the netsim lowering round
    int peer = -1;       ///< Send/Recv partner rank
    int tag_offset = 0;  ///< tag = TagSpace::tag(tag_offset)
    rt::Protocol proto = rt::Protocol::Auto;  ///< Send volume hint

    BufRef a;  ///< Send src / Recv dst / Copy src / Pack src / Unpack dst / Reduce acc
    std::size_t count = 0;
    dt::Datatype type;

    BufRef b;  ///< Copy dst
    std::size_t bcount = 0;
    dt::Datatype btype;

    int slot = -1;            ///< staging slot (-1: none)
    std::uint64_t bytes = 0;  ///< wire/staging volume in bytes

    ReduceOp rop = ReduceOp::Sum;  ///< Reduce only
    ReduceFn rfn = nullptr;
    std::vector<int> deps;
};

/// A compiled collective: the full op DAG for ONE rank, plus the sizes of
/// the persistent staging slots the ops reference. tag_base is the
/// pre-epoch tag base (kInternalTagBase + collective offset); the executor
/// folds it into a fresh epoch lane per execution.
struct Schedule {
    int tag_base = rt::kInternalTagBase;
    int rounds = 1;
    std::vector<ScheduleOp> ops;
    std::vector<std::size_t> staging;  ///< bytes per staging slot
};

// ---------------------------------------------------------------------------
// Builders (communication-free; shared with src/netsim)

/// `algo` must be resolved (not Auto) — use resolve_allgatherv_algo.
Schedule build_allgatherv_schedule(int rank, int nranks, AllgathervAlgo algo,
                                   std::size_t sendcount, const dt::Datatype& sendtype,
                                   std::span<const std::size_t> recvcounts,
                                   std::span<const std::size_t> displs,
                                   const dt::Datatype& recvtype,
                                   std::size_t rendezvous_threshold);

/// The paper's Eq. 1 outlier selection over the volume set.
AllgathervAlgo resolve_allgatherv_algo(std::span<const std::uint64_t> volumes,
                                       const CollConfig& config);

/// `algo` must be RoundRobin or Binned (Auto resolves to Binned upstream).
Schedule build_alltoallw_schedule(int rank, int nranks, AlltoallwAlgo algo,
                                  std::span<const std::size_t> sendcounts,
                                  std::span<const std::ptrdiff_t> sdispls,
                                  std::span<const dt::Datatype> sendtypes,
                                  std::span<const std::size_t> recvcounts,
                                  std::span<const std::ptrdiff_t> rdispls,
                                  std::span<const dt::Datatype> recvtypes,
                                  std::size_t small_msg_threshold);

Schedule build_bcast_schedule(int rank, int nranks, int root, std::size_t count,
                              const dt::Datatype& type);

Schedule build_gatherv_schedule(int rank, int nranks, int root, std::size_t sendcount,
                                const dt::Datatype& sendtype,
                                std::span<const std::size_t> recvcounts,
                                std::span<const std::size_t> displs,
                                const dt::Datatype& recvtype);

Schedule build_scatterv_schedule(int rank, int nranks, int root,
                                 std::span<const std::size_t> sendcounts,
                                 std::span<const std::size_t> displs,
                                 const dt::Datatype& sendtype, std::size_t recvcount,
                                 const dt::Datatype& recvtype);

/// Binomial-tree reduce over `nbytes` of raw data (elems elements for the
/// reduction kernel). The mask-ascending apply order of the blocking
/// template is preserved exactly (Reduce ops chain on each other), so
/// floating-point results are bit-identical.
Schedule build_reduce_schedule(int rank, int nranks, int root, std::size_t nbytes,
                               ReduceOp op, ReduceFn fn, std::size_t elems);

/// One-sided alltoallw over a pre-negotiated rt::Win: round 0 opens the
/// access epoch (Fence), round 1 fires one fused pack+Put per nonzero
/// destination (binned small-first like the two-sided Binned schedule) plus
/// the self Copy, round 2 closes the epoch (Fence, depending on every Put),
/// round 3 Unpacks each source's bytes out of this rank's own window
/// region. No Send/Recv, no CTS, no staging slots. `target_offsets[d]` is
/// this rank's byte offset inside destination d's window; `my_offsets[s]`
/// is source s's byte offset inside this rank's window (both n-sized,
/// unused entries ignored). The offsets are exchanged once at plan setup —
/// steady state moves zero control messages.
Schedule build_alltoallw_rma_schedule(int rank, int nranks,
                                      std::span<const std::size_t> sendcounts,
                                      std::span<const std::ptrdiff_t> sdispls,
                                      std::span<const dt::Datatype> sendtypes,
                                      std::span<const std::size_t> recvcounts,
                                      std::span<const std::ptrdiff_t> rdispls,
                                      std::span<const dt::Datatype> recvtypes,
                                      std::span<const std::uint64_t> target_offsets,
                                      std::span<const std::uint64_t> my_offsets,
                                      std::size_t small_msg_threshold);

// ---------------------------------------------------------------------------
// CollRequest — the schedule executor

/// Progress-driven executor for one Schedule. One execution:
///
///   start(sendbuf, recvbuf)  — binds buffers, draws a fresh tag epoch,
///                              runs one progress pass (posting round-zero
///                              receives and firing eligible work, exactly
///                              like the blocking entry points did).
///   test()                   — one nonblocking progress pass; true once
///                              every op retired. This is the overlap hook.
///   wait()                   — drives passes to completion, parking in
///                              Comm::wait_until until any posted op can
///                              fire when a pass makes no progress.
///
/// Persistent plans reuse one CollRequest across executes via reset():
/// staging buffers and pack engines survive, so the steady state performs
/// no allocations (bench_persistent_scatter's rt_payload_allocs == 0 and
/// scratch_allocs invariants hold on this path).
///
/// Statistics (pack counters, the coll_* schedule counters, phase timers)
/// accumulate per execution and fold into the Comm when the last op
/// retires.
class CollRequest {
public:
    CollRequest() = default;
    CollRequest(rt::Comm& comm, Schedule schedule);

    CollRequest(CollRequest&&) = default;
    CollRequest& operator=(CollRequest&&) = default;
    CollRequest(const CollRequest&) = delete;
    CollRequest& operator=(const CollRequest&) = delete;

    /// True once bound to a communicator and schedule.
    bool valid() const { return comm_ != nullptr; }
    /// True between start() and completion.
    bool active() const { return started_ && !done_; }
    bool done() const { return done_; }

    /// Begins one execution. sendbuf may be null when no op reads the Send
    /// space (e.g. bcast/reduce operate in place through the Recv space).
    /// Buffers must stay valid and unmodified (sendbuf) / untouched
    /// (recvbuf) until completion.
    void start(const void* sendbuf, void* recvbuf);

    /// One nonblocking progress pass; returns completion. Counted in
    /// coll_overlap_progress_calls.
    bool test();

    /// Blocks until every op has retired. Returns immediately if done.
    void wait();

    /// Prepares for the next execution (persistent plans). Must not be
    /// called while active. Staging buffers and pack engines are kept.
    void reset();
    /// Drops the persistent pack engines (engine-config change).
    void invalidate_engines() { engines_.clear(); }
    /// Selects the pack-engine kind for Pack ops (default: the Comm's
    /// engine at start()).
    void set_pack_engine(dt::EngineKind kind) {
        engine_kind_ = kind;
        engine_kind_set_ = true;
    }

    /// Binds the rt::Win that Put/Fence/window-Unpack ops operate on.
    /// Required before start() when the schedule contains one-sided ops;
    /// the window must outlive the request. Not owned.
    void set_window(rt::Win* win) { win_ = win; }

    /// Folds extra statistics into the next execution's step (persistent
    /// plans inject persistent_executes / cache hits / setup costs).
    void inject(const StatCounters& extra) { pending_setup_ += extra; }
    /// Statistics of the last completed execution (what was folded into
    /// the Comm).
    const StatCounters& last_step() const { return step_; }

    const Schedule& schedule() const { return sched_; }

private:
    enum : std::uint8_t { kPending = 0, kPosted = 1, kDone = 2 };

    bool deps_done(const ScheduleOp& op) const;
    bool pass();          ///< one progress pass; true when complete
    void post_recv(std::size_t i);
    void post_send(std::size_t i);
    void run_local(std::size_t i);
    /// Chunk-pipelined rendezvous for a fusable Pack op: when Pack i feeds
    /// exactly one Rendezvous Send through a private staging slot and the
    /// matching receive is already posted, the pack streams straight into
    /// the receiver through a pipeline_chunk-sized window of the slot
    /// (rt::Comm::try_rendezvous_staged_i) and both ops retire at once.
    /// Returns false — caller packs and sends serially — whenever the fused
    /// transfer cannot run (pipeline disabled, small payload, unposted
    /// receive, active SchedulePolicy, FIFO guard).
    bool try_fused(std::size_t i);
    void mark_done(std::size_t i);
    void finalize();
    std::byte* resolve(const BufRef& ref) const;

    rt::Comm* comm_ = nullptr;
    rt::Win* win_ = nullptr;  ///< one-sided ops only; not owned
    Schedule sched_;
    TagSpace tags_;
    const void* sendbuf_ = nullptr;
    void* recvbuf_ = nullptr;

    std::vector<std::uint8_t> state_;
    std::vector<rt::Request> reqs_;
    /// fused_send_[i] = index of the lone Rendezvous Send fed by Pack op i
    /// through a staging slot referenced by no other op (-1: not fusable).
    /// Computed once at construction from the schedule's static shape.
    std::vector<int> fused_send_;
    std::vector<std::vector<std::byte>> staging_;              ///< persistent
    std::vector<std::unique_ptr<dt::PackEngine>> engines_;     ///< persistent
    std::vector<int> round_left_;
    std::size_t remaining_ = 0;
    bool started_ = false;
    bool done_ = false;
    bool moved_ = false;  ///< last pass made progress

    dt::EngineKind engine_kind_ = dt::EngineKind::DualContext;
    bool engine_kind_set_ = false;
    std::byte token_{};  ///< zero-byte send/recv landing pad

    StatCounters step_;
    StatCounters pending_setup_;
    PhaseTimers step_timers_;
};

// ---------------------------------------------------------------------------
// Nonblocking collectives (icoll)

/// Nonblocking allgatherv: returns a started CollRequest; drive it with
/// test()/wait(). Argument contract matches coll::allgatherv.
CollRequest iallgatherv(rt::Comm& comm, const void* sendbuf, std::size_t sendcount,
                        const dt::Datatype& sendtype, void* recvbuf,
                        std::span<const std::size_t> recvcounts,
                        std::span<const std::size_t> displs, const dt::Datatype& recvtype,
                        const CollConfig& config = {});

CollRequest ialltoallw(rt::Comm& comm, const void* sendbuf,
                       std::span<const std::size_t> sendcounts,
                       std::span<const std::ptrdiff_t> sdispls,
                       std::span<const dt::Datatype> sendtypes, void* recvbuf,
                       std::span<const std::size_t> recvcounts,
                       std::span<const std::ptrdiff_t> rdispls,
                       std::span<const dt::Datatype> recvtypes, const CollConfig& config = {});

CollRequest ibcast(rt::Comm& comm, void* buf, std::size_t count, const dt::Datatype& type,
                   int root);

CollRequest igatherv(rt::Comm& comm, const void* sendbuf, std::size_t sendcount,
                     const dt::Datatype& sendtype, void* recvbuf,
                     std::span<const std::size_t> recvcounts,
                     std::span<const std::size_t> displs, const dt::Datatype& recvtype,
                     int root);

CollRequest iscatterv(rt::Comm& comm, const void* sendbuf,
                      std::span<const std::size_t> sendcounts,
                      std::span<const std::size_t> displs, const dt::Datatype& sendtype,
                      void* recvbuf, std::size_t recvcount, const dt::Datatype& recvtype,
                      int root);

/// Nonblocking binomial reduce; same in-place contract as coll::reduce.
/// `data` must stay untouched until completion.
template <typename T>
CollRequest ireduce(rt::Comm& comm, T* data, std::size_t n, ReduceOp op, int root) {
    static_assert(std::is_arithmetic_v<T>);
    const ReduceFn fn = [](ReduceOp o, void* acc, const void* in, std::size_t cnt) {
        detail::apply_op(o, static_cast<T*>(acc), static_cast<const T*>(in), cnt);
    };
    CollRequest req(comm, build_reduce_schedule(comm.rank(), comm.size(), root, n * sizeof(T),
                                                op, fn, n));
    req.start(nullptr, data);
    return req;
}

}  // namespace nncomm::coll
