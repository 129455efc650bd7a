// Threaded in-process message-passing runtime with MPI semantics.
//
// A World owns N ranks; World::run(fn) executes fn(Comm&) on one thread per
// rank. Comm provides MPI-style point-to-point operations — blocking and
// nonblocking sends/receives with (source, tag, communicator-context)
// matching, wildcards, FIFO ordering per sender, and derived-datatype
// buffers on both sides.
//
// The send path is where the paper's datatype engines plug in: every
// noncontiguous send is driven through a pipelined PackEngine
// (SingleContext = the MPICH2 baseline with the quadratic re-search,
// DualContext = the paper's §4.1 design), selected per-Comm via
// set_engine(). Phase timers accumulate Comm / Pack / Search time exactly
// as Figure 13 reports them.
//
// This runtime is the substrate standing in for MVAPICH2 on the paper's
// InfiniBand cluster: all algorithmic behaviour (matching, ordering,
// packing, zero-byte synchronization) is real; only the wire is a
// process-local queue.
//
// Delivery is eager by default, but under a World::set_schedule policy the
// nonblocking sends become genuinely pending: packed envelopes sit on a
// per-world in-flight queue drained by a delivery engine that
// wait/waitall/probe/iprobe drive, with seeded schedule perturbation and
// fault injection (runtime/schedule.hpp). That is how the test suite makes
// latent message-matching bugs reachable.
//
// The send path runs a two-protocol split mirroring real MPI stacks'
// eager/rendezvous designs:
//
//   rendezvous — a message at or above the communicator's
//     rendezvous_threshold whose matching receive is already posted is
//     moved straight into the receiver's buffer in a single pass: one
//     memcpy for contiguous layouts, a direct plan/engine-driven
//     gather/scatter for noncontiguous ones. No envelope, no intermediate
//     payload allocation (rt_zero_copy_msgs counts these).
//
//   buffered eager — everything else (small messages, unposted receives,
//     and every send under an active SchedulePolicy, which must route
//     through the in-flight queue) stages its payload in an envelope whose
//     buffer comes from a per-world size-classed pool recycled at receive
//     completion (rt_pool_hits / rt_pool_misses / rt_payload_allocs).
//
// Collectives pass explicit Protocol hints so algorithm knowledge (the
// large bin of binned alltoallw, the bulk phases of allgatherv) overrides
// the size heuristic; user point-to-point traffic uses Protocol::Auto.
//
// Transport: each rank's mailbox is sharded by source into per-(source,
// dest) lanes. The buffered-eager fastpath pushes envelopes onto a lane's
// lock-free SPSC ring; ring-full spill and all SchedulePolicy-routed
// traffic go through a mutex-guarded per-lane overflow list that preserves
// per-pair FIFO (ring entries are always older than overflow entries).
// Receivers pull: arrival matching runs on the destination rank's own
// thread against a posted-receive registry (sharded by source, ordered
// across shards by post sequence — MPI's earliest-posted-first), and
// unmatched envelopes land in receiver-private per-source stashes that
// irecv/probe scan without locks. Rendezvous senders claim posted receives
// directly under the registry lock, gated on the lane's unconsumed count so
// a large message can never overtake an earlier small one from the same
// sender. The delivery engine is sharded per destination with an atomic
// drain claim instead of a global lock, the payload pool fronts its shared
// store with per-rank caches (batch refill/flush under a byte budget), and
// waiters spin briefly on a per-mailbox sequence counter before registering
// as sleepers — deliverers only touch the condition variable when a sleeper
// is registered. The rt_lane_* / rt_lock_acquisitions / rt_cv_* /
// rt_pool_local_hits counters make all of this observable.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/counters.hpp"
#include "core/error.hpp"
#include "datatype/engine.hpp"
#include "runtime/protocol.hpp"
#include "runtime/schedule.hpp"

namespace nncomm::rt {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Transfer-protocol selector for one send. Auto applies the size
/// heuristic (rendezvous at or above the communicator's threshold); Eager
/// and Rendezvous force the respective path regardless of size. A
/// rendezvous attempt always degrades to buffered eager when the matching
/// receive is not posted yet or a SchedulePolicy is active, so a hint can
/// never deadlock or reorder anything — it only changes which copy path
/// moves the bytes. Rma marks a transfer lowered onto a one-sided window
/// (rt::Win) by a persistent plan; on the ad-hoc point-to-point path it
/// resolves exactly like Auto (there is no window to put into), so the
/// hint is always safe to pass through generic send paths.
enum class Protocol { Auto, Eager, Rendezvous, Rma };

/// Default rendezvous threshold (bytes). Overridable per communicator via
/// Comm::set_rendezvous_threshold (SIZE_MAX means "never": pure eager).
inline constexpr std::size_t kDefaultRendezvousThreshold = 32 * 1024;
/// Tags >= kInternalTagBase are reserved for collective implementations.
inline constexpr int kInternalTagBase = 1 << 24;

/// Collective tag epochs: every collective invocation folds a
/// per-communicator epoch ordinal into its tags so that back-to-back
/// invocations on the same communicator can never alias once sends are
/// genuinely asynchronous (or the fault injector reorders same-pair
/// envelopes). Each collective keeps its base offset below kEpochTagStride;
/// the epoch selects one of kEpochLanes disjoint tag lanes above it.
inline constexpr int kEpochTagStride = 1 << 12;
inline constexpr int kEpochLanes = 256;
inline constexpr int epoch_tag(int base, int epoch) {
    return base + (epoch & (kEpochLanes - 1)) * kEpochTagStride;
}

/// Secondary failure thrown by ranks that were blocked in a recv/probe/wait
/// when another rank aborted the world. World::run records it only if no
/// root-cause exception arrives, so the originating error always wins the
/// rethrow.
class AbortedError : public Error {
public:
    using Error::Error;
};

struct RecvStatus {
    int source = -1;
    int tag = -1;
    std::size_t bytes = 0;  ///< payload bytes received
};

/// Result of a probe: like RecvStatus but for a message still in the queue.
struct ProbeStatus {
    bool found = false;  ///< always true for blocking probe
    int source = -1;
    int tag = -1;
    std::size_t bytes = 0;
};

namespace detail {
struct WorldState;
struct RequestState;
struct Envelope;
}  // namespace detail

/// Handle to a pending nonblocking operation. Value-semantic; copy shares
/// the underlying operation.
class Request {
public:
    Request() = default;
    bool valid() const { return state_ != nullptr; }

private:
    friend class Comm;
    explicit Request(std::shared_ptr<detail::RequestState> s) : state_(std::move(s)) {}
    std::shared_ptr<detail::RequestState> state_;
};

/// Per-rank communicator handle. Not thread-safe; each rank thread owns one.
class Comm {
public:
    int rank() const { return rank_; }
    int size() const;

    // -- configuration -------------------------------------------------------
    /// Selects the datatype pack engine used by this rank's sends.
    void set_engine(dt::EngineKind kind) { engine_kind_ = kind; }
    dt::EngineKind engine_kind() const { return engine_kind_; }
    void set_engine_config(const dt::EngineConfig& cfg) { engine_config_ = cfg; }
    const dt::EngineConfig& engine_config() const { return engine_config_; }
    /// Message size (bytes) at which Protocol::Auto sends attempt the
    /// zero-copy rendezvous path. 0 makes every nonempty send attempt it;
    /// SIZE_MAX disables the protocol for this communicator. Setting an
    /// explicit threshold PINS static protocol selection (adaptation
    /// disengages), so tests and workloads that reason about exact protocol
    /// counts keep their determinism; a later set_adaptive_protocol(true)
    /// re-engages adaptation with this value as the fallback.
    void set_rendezvous_threshold(std::size_t bytes) {
        rendezvous_threshold_ = bytes;
        threshold_pinned_ = true;
    }
    std::size_t rendezvous_threshold() const { return rendezvous_threshold_; }

    /// Per-(src, dst)-pair self-tuning protocol selection (protocol.hpp):
    /// when engaged, Protocol::Auto resolves against the learned
    /// eager/rendezvous cost crossover for (this rank, dest, pack family)
    /// instead of the static threshold, which remains the fallback while
    /// the cost model is under-sampled. On by default; disengaged by an
    /// explicit set_rendezvous_threshold or the NNCOMM_ADAPTIVE=OFF env
    /// var. An explicit set_adaptive_protocol(true) overrides a prior
    /// threshold pin.
    void set_adaptive_protocol(bool on) {
        adaptive_protocol_ = on;
        if (on) threshold_pinned_ = false;
    }
    bool adaptive_protocol() const { return adaptive_protocol_; }
    /// True when Auto sends actually consult the learned cost model.
    bool adaptive_protocol_engaged() const {
        return adaptive_protocol_ && !threshold_pinned_ && adaptive_runtime_enabled();
    }
    /// The threshold a Protocol::Auto send to `dest` with layout `type`
    /// resolves against right now: the learned crossover when adaptation is
    /// engaged and confident, the static threshold otherwise. Updates the
    /// rt_proto_threshold_bytes_{hi,lo} water marks.
    std::size_t effective_rendezvous_threshold(int dest, const dt::Datatype& type);

    /// Chunk-pipelined rendezvous for staged collective sends (on by
    /// default): packing chunk k+1 overlaps the copy-out of chunk k through
    /// a small cache-hot window instead of staging the whole payload first.
    /// coll::CollRequest consults this before fusing a Pack+Send op pair.
    void set_rendezvous_pipeline(bool on) { rendezvous_pipeline_ = on; }
    bool rendezvous_pipeline() const { return rendezvous_pipeline_; }

    // -- blocking point-to-point ---------------------------------------------
    void send(const void* buf, std::size_t count, const dt::Datatype& type, int dest, int tag);
    RecvStatus recv(void* buf, std::size_t count, const dt::Datatype& type, int source,
                    int tag);
    /// Combined send+recv (deadlock-free regardless of peer order).
    RecvStatus sendrecv(const void* sendbuf, std::size_t sendcount, const dt::Datatype& sendtype,
                        int dest, int sendtag, void* recvbuf, std::size_t recvcount,
                        const dt::Datatype& recvtype, int source, int recvtag);

    // -- nonblocking ----------------------------------------------------------
    Request isend(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                  int tag);
    Request irecv(void* buf, std::size_t count, const dt::Datatype& type, int source, int tag);
    RecvStatus wait(Request& req);
    void waitall(std::span<Request> reqs);
    /// Nonblocking completion check (MPI_Test). Drives the delivery engine
    /// once, completes the request if it can (including the receive-side
    /// unpack), and returns whether it did. A completed request's status is
    /// written through `status` when non-null. Never blocks; the schedule
    /// executor (coll::CollRequest) is built on this.
    bool test(Request& req, RecvStatus* status = nullptr);

    // -- one-sided completion hooks ------------------------------------------
    /// Bumps `rank`'s mailbox pulse and notifies its registered sleepers.
    /// rt::Win epochs signal completion through this — the same seq-counter
    /// path every delivery rides — instead of mailbox messages.
    void pulse_rank(int rank);
    /// Blocks until `pred()` turns true, using the spin / yield / registered
    /// timed-sleep discipline of the message waiters, driving the delivery
    /// engine between checks. `pred` must become true through another
    /// rank's store followed by a pulse_rank(this rank) (or any delivery to
    /// this rank); the timed slice self-heals a suppressed notify. `pred`
    /// is never called under a mailbox lock, so it may itself drive
    /// communication (coll::CollRequest::wait passes its progress sweep).
    void wait_until(const std::function<bool()>& pred);

    /// Dissemination barrier over all ranks of this communicator.
    void barrier();

    /// Blocks until a message matching (source, tag) is queued without a
    /// posted receive, and reports it without consuming it (MPI_Probe).
    /// Wildcards allowed.
    ProbeStatus probe(int source, int tag);
    /// Nonblocking variant (MPI_Iprobe): found == false when nothing
    /// matches right now.
    ProbeStatus iprobe(int source, int tag);

    /// Duplicates the communicator into a new matching context
    /// (MPI_Comm_dup): messages on the duplicate can never match receives
    /// on the parent. Collective in the MPI sense — every rank must
    /// perform the same sequence of dup calls. Statistics start fresh;
    /// engine configuration is inherited.
    Comm dup();

    // -- internal-context point-to-point ---------------------------------------
    // Used by collective implementations (src/coll). Identical semantics to
    // the public operations but matched on a shifted context, so collective
    // traffic can never be stolen by user-posted wildcard receives. The
    // Protocol parameter is the volume hint collectives thread through:
    // phases known to move bulk data force Rendezvous, latency-bound small
    // phases force Eager, and Auto falls back to the size heuristic.
    void send_i(const void* buf, std::size_t count, const dt::Datatype& type, int dest, int tag,
                Protocol proto = Protocol::Auto);
    RecvStatus recv_i(void* buf, std::size_t count, const dt::Datatype& type, int source,
                      int tag);
    Request isend_i(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                    int tag, Protocol proto = Protocol::Auto);
    Request irecv_i(void* buf, std::size_t count, const dt::Datatype& type, int source, int tag);
    RecvStatus sendrecv_i(const void* sendbuf, std::size_t sendcount,
                          const dt::Datatype& sendtype, int dest, int sendtag, void* recvbuf,
                          std::size_t recvcount, const dt::Datatype& recvtype, int source,
                          int recvtag, Protocol proto = Protocol::Auto);
    /// Internal-context nonblocking probe: like iprobe, but matching on the
    /// shifted collective context, so it can never observe (or steal) user
    /// point-to-point traffic. The NBX sparse exchange (runtime/sparse.cpp)
    /// drives its consensus loop with this.
    ProbeStatus iprobe_i(int source, int tag);

    /// Chunk-pipelined internal-context rendezvous for producer-driven
    /// staged sends (coll::CollRequest's fused Pack+Send path). If the
    /// matching receive is already posted, streams the payload in
    /// engine_config().pipeline_chunk slices: each slice is produced into
    /// the front of `stage` (produce(pos, slice) must fill slice with
    /// payload bytes [pos, pos + slice.size())) and immediately copied or
    /// scattered into the receiver's buffer while the source bytes are
    /// still cache-hot — pack of chunk k+1 overlaps the copy of chunk k
    /// instead of a serial whole-message pack-then-copy. Returns false
    /// (caller falls back to pack-into-staging + isend_i) when the receive
    /// is unposted, a SchedulePolicy is active, total == 0, or FIFO order
    /// would be violated — exactly try_rendezvous's degradation rules.
    /// `family` attributes the cost-model observation.
    bool try_rendezvous_staged_i(
        int dest, int tag, std::size_t total, PackFamily family, std::span<std::byte> stage,
        const std::function<void(std::uint64_t, std::span<std::byte>)>& produce);

    /// Matching-context ordinal of this communicator (stable across ranks:
    /// dup trees are numbered deterministically). Keys the ProtoTuneCache's
    /// per-(communicator, pattern) frozen protocol choices.
    int context_id() const { return context_; }

    // -- convenience typed sends (contiguous arrays) --------------------------
    template <typename T>
    void send_n(const T* buf, std::size_t n, int dest, int tag) {
        send(buf, n * sizeof(T), dt::Datatype::byte(), dest, tag);
    }
    template <typename T>
    RecvStatus recv_n(T* buf, std::size_t n, int source, int tag) {
        return recv(buf, n * sizeof(T), dt::Datatype::byte(), source, tag);
    }

    // -- collective tag epochs -------------------------------------------------
    /// Returns the next collective epoch ordinal for this communicator.
    /// Every collective implementation (src/coll, barrier, persistent
    /// plans) calls this exactly once per invocation, first thing, on every
    /// rank — the call sequences match because collectives are collective —
    /// and folds the result into its tags via epoch_tag().
    int next_collective_epoch() { return collective_epoch_++; }

    // -- instrumentation -------------------------------------------------------
    const PhaseTimers& timers() const { return timers_; }
    PhaseTimers& timers() { return timers_; }
    const StatCounters& counters() const { return counters_; }
    StatCounters& counters() { return counters_; }
    void reset_stats() {
        timers_.reset();
        counters_.reset();
    }
    /// Folds externally measured statistics into this communicator's
    /// totals. Persistent collective plans drive their own pack engines
    /// instead of the send path, then report what they did through here.
    void merge_stats(const StatCounters& c, const PhaseTimers& t) {
        counters_ += c;
        timers_ += t;
    }

private:
    friend class World;
    Comm(detail::WorldState* world, int rank, int context)
        : world_(world), rank_(rank), context_(context) {}

    Request irecv_ctx(void* buf, std::size_t count, const dt::Datatype& type, int source,
                      int tag, int context);
    void send_ctx(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                  int tag, int context, Protocol proto = Protocol::Auto);
    Request isend_ctx(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                      int tag, int context, Protocol proto = Protocol::Auto);
    detail::Envelope pack_envelope(const void* buf, std::size_t count, const dt::Datatype& type,
                                   int dest, int tag, int context, std::size_t total);
    bool try_rendezvous(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                        int tag, int context, Protocol proto, std::size_t total);
    /// Returns a fresh receive request, recycling an idle RequestState from
    /// this communicator's cache when one is free (use_count == 1 means
    /// only the cache still references it).
    std::shared_ptr<detail::RequestState> alloc_request();
    /// Drains this rank's lanes (rings, then overflow) and runs arrival
    /// matching against the posted-receive registry; misses go to the
    /// per-source stashes. Returns true if any envelope was processed.
    bool process_arrivals();
    /// Fast completion check for a receive: matched flag first, then a
    /// pulse-gated process_arrivals(). Cheap enough to sit in a spin loop.
    bool try_complete_recv(detail::RequestState& req);
    /// Receive-side completion: unpacks a matched request's payload into the
    /// user buffer (or just fills the status for zero-copy rendezvous
    /// arrivals) and recycles the envelope. Shared by wait() and test().
    RecvStatus finish_recv(detail::RequestState& req);
    /// Drains deliverable in-flight envelopes (no-op when the schedule
    /// policy is off). Returns the number of envelopes delivered.
    std::size_t progress();

    detail::WorldState* world_ = nullptr;
    int rank_ = -1;
    int context_ = 0;
    int dup_count_ = 0;  ///< children created from this communicator
    int collective_epoch_ = 0;
    std::size_t rendezvous_threshold_ = kDefaultRendezvousThreshold;
    bool threshold_pinned_ = false;     ///< explicit threshold: static selection
    bool adaptive_protocol_ = true;     ///< consult the learned cost model
    bool rendezvous_pipeline_ = true;   ///< fuse staged Pack+Send op pairs
    dt::EngineKind engine_kind_ = dt::EngineKind::DualContext;
    dt::EngineConfig engine_config_{};
    PhaseTimers timers_;
    StatCounters counters_;
    std::vector<std::shared_ptr<detail::RequestState>> req_cache_;
    std::size_t req_cursor_ = 0;
};

/// A set of ranks executed as threads.
class World {
public:
    explicit World(int nranks);
    ~World();

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    int size() const { return nranks_; }

    /// Installs the delivery schedule used by subsequent run() calls. Must
    /// not be called while a run is in progress. The default is
    /// SchedulePolicy::none() — eager inline delivery.
    void set_schedule(const SchedulePolicy& policy);
    const SchedulePolicy& schedule() const;

    /// Runs fn(Comm&) on every rank concurrently and joins. If any rank
    /// throws, all blocked operations are aborted and the root-cause
    /// exception is rethrown here: a real error always displaces the
    /// secondary AbortedError a woken waiter throws, regardless of which
    /// rank reaches the error slot first.
    void run(const std::function<void(Comm&)>& fn);

    /// Rank whose exception the last run() rethrew (-1 if it succeeded).
    int faulting_rank() const { return faulting_rank_; }

    /// Caps the bytes the shared payload-pool store may keep resident
    /// (per-rank caches excluded). Shrinking the budget trims immediately,
    /// largest size classes first. Default 64 MiB.
    void set_payload_pool_budget(std::size_t bytes);
    /// Bytes currently resident in the shared payload-pool store.
    std::size_t payload_pool_resident_bytes() const;

    /// Replaces measured protocol-cost observations with the analytic model
    /// `costs` (protocol.hpp): every observation becomes base + per_byte ×
    /// bytes with no clock reads, so adaptation is a pure deterministic
    /// function of the message sequence. Must not be called while a run is
    /// in progress. Determinism tests and benches place the crossover
    /// exactly with this.
    void set_synthetic_protocol_costs(const SyntheticProtoCosts& costs);
    /// The learned rendezvous crossover for (src, dst, family), or
    /// `fallback` while the pair's cost model is under-sampled.
    std::size_t learned_threshold(int src, int dst, PackFamily family,
                                  std::size_t fallback) const;
    /// Total cost-model observations recorded for the (src, dst) pair
    /// across all families and lines (determinism tests).
    std::uint64_t proto_pair_samples(int src, int dst) const;

private:
    int nranks_;
    int faulting_rank_ = -1;
    std::unique_ptr<detail::WorldState> state_;
};

}  // namespace nncomm::rt
