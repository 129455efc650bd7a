#include "runtime/comm.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "datatype/pack.hpp"

namespace nncomm::rt {

namespace detail {

/// Internal collective traffic uses a shifted context so it can never match
/// user-posted wildcard receives on the same communicator.
inline constexpr int kInternalContextOffset = 1 << 30;

inline constexpr std::size_t kCacheLine = 64;

/// Owning byte buffer for one staged payload. Unlike std::vector, resizing
/// for reuse never value-initializes: the eager path overwrites every byte
/// it claims, so a recycled pool buffer costs zero writes beyond the pack
/// copy itself.
struct PayloadBuffer {
    std::unique_ptr<std::byte[]> buf;
    std::size_t cap = 0;
    std::size_t len = 0;

    PayloadBuffer() = default;
    PayloadBuffer(PayloadBuffer&& o) noexcept
        : buf(std::move(o.buf)), cap(std::exchange(o.cap, 0)), len(std::exchange(o.len, 0)) {}
    PayloadBuffer& operator=(PayloadBuffer&& o) noexcept {
        buf = std::move(o.buf);
        cap = std::exchange(o.cap, 0);
        len = std::exchange(o.len, 0);
        return *this;
    }

    std::byte* data() { return buf.get(); }
    const std::byte* data() const { return buf.get(); }
    std::size_t size() const { return len; }
    bool empty() const { return len == 0; }

    /// Grows capacity (uninitialized) if needed and sets the logical size.
    void resize_for_overwrite(std::size_t n) {
        if (n > cap) {
            buf.reset(new std::byte[n]);  // default-init: no memset
            cap = n;
        }
        len = n;
    }
    void reset() {
        buf.reset();
        cap = 0;
        len = 0;
    }
};

/// Per-world size-classed pool of payload buffers with a per-rank cache in
/// front of the shared store. Buffers are acquired by sending ranks when a
/// message takes the buffered-eager path and released by the receiving rank
/// when the payload has been unpacked, so in steady state the same buffers
/// cycle between the ranks and rt_payload_allocs stays flat.
///
/// The per-rank caches are only ever touched by their owning rank's thread,
/// so the common acquire/release is lock-free (rt_pool_local_hits); the
/// shared mutex is paid once per kTransferBatch buffers when a cache runs
/// dry (batch refill) or over (batch flush). The shared store is bounded
/// two ways: a per-class buffer-count cap, and a byte budget across all
/// classes — without the latter, a large size class could pin
/// capacity x 8 MiB forever. Trimming frees the largest classes first;
/// resident_bytes_ never exceeds the budget, and its high-water mark is
/// mirrored into rt_pool_resident_bytes. Oversize payloads bypass the pool
/// entirely.
class PayloadPool {
public:
    static constexpr std::size_t kMinClassBytes = 256;
    static constexpr std::size_t kMaxClassBytes = std::size_t{8} << 20;  // 8 MB
    static constexpr std::size_t kNumClasses = 16;                       // 256 B .. 8 MB
    static constexpr std::size_t kBuffersPerClass = 16;
    static constexpr std::size_t kCachePerClass = 8;   ///< per-rank shelf cap
    static constexpr std::size_t kTransferBatch = 4;   ///< buffers per refill/flush
    static constexpr std::size_t kDefaultBudgetBytes = std::size_t{64} << 20;  // 64 MB

    void init(int nranks) { caches_.resize(static_cast<std::size_t>(nranks)); }

    void set_budget(std::size_t bytes) {
        std::lock_guard<std::mutex> lk(mu_);
        budget_bytes_ = bytes;
        trim_locked();
    }

    std::size_t resident_bytes() const {
        std::lock_guard<std::mutex> lk(mu_);
        return resident_bytes_;
    }

    /// Returns a buffer of logical size `bytes` (contents uninitialized).
    PayloadBuffer acquire(std::size_t bytes, int rank, StatCounters& counters) {
        PayloadBuffer out;
        if (bytes > kMaxClassBytes) {
            ++counters.rt_payload_allocs;
            out.resize_for_overwrite(bytes);
            return out;
        }
        const std::size_t idx = class_index(bytes);
        auto& shelf = caches_[static_cast<std::size_t>(rank)].shelf[idx];
        if (shelf.empty()) refill(idx, shelf, counters);
        if (!shelf.empty()) {
            out = std::move(shelf.back());
            shelf.pop_back();
            ++counters.rt_pool_hits;
            ++counters.rt_pool_local_hits;
            out.len = bytes;  // cap >= class size >= bytes
            return out;
        }
        ++counters.rt_pool_misses;
        ++counters.rt_payload_allocs;
        out.resize_for_overwrite(class_bytes(idx));  // allocate the full class
        out.len = bytes;
        return out;
    }

    /// Returns a buffer to the releasing rank's cache (or flushes a batch
    /// to the shared store when the shelf is full). Buffers that fit no
    /// class are freed.
    void release(PayloadBuffer&& b, int rank, StatCounters& counters) {
        if (b.cap < kMinClassBytes || b.cap > kMaxClassBytes) return;  // dropped
        const std::size_t idx = class_index(b.cap);
        if (class_bytes(idx) != b.cap) return;  // not one of ours
        auto& shelf = caches_[static_cast<std::size_t>(rank)].shelf[idx];
        if (shelf.size() >= kCachePerClass) flush(idx, shelf, counters);
        shelf.push_back(std::move(b));
    }

private:
    struct RankCache {
        std::array<std::vector<PayloadBuffer>, kNumClasses> shelf;
    };

    static std::size_t class_bytes(std::size_t idx) { return kMinClassBytes << idx; }
    static std::size_t class_index(std::size_t bytes) {
        if (bytes <= kMinClassBytes) return 0;
        return static_cast<std::size_t>(std::bit_width(bytes - 1)) - 8;  // 256 = 2^8
    }

    /// Moves up to kTransferBatch free buffers of class idx into `shelf`.
    void refill(std::size_t idx, std::vector<PayloadBuffer>& shelf, StatCounters& counters) {
        std::lock_guard<std::mutex> lk(mu_);
        ++counters.rt_lock_acquisitions;
        auto& store = free_[idx];
        for (std::size_t i = 0; i < kTransferBatch && !store.empty(); ++i) {
            resident_bytes_ -= store.back().cap;
            shelf.push_back(std::move(store.back()));
            store.pop_back();
        }
    }

    /// Moves kTransferBatch buffers from `shelf` into the shared store,
    /// honoring the per-class count cap and the byte budget (largest
    /// classes trimmed first). Overflowing buffers are freed.
    void flush(std::size_t idx, std::vector<PayloadBuffer>& shelf, StatCounters& counters) {
        std::lock_guard<std::mutex> lk(mu_);
        ++counters.rt_lock_acquisitions;
        auto& store = free_[idx];
        const std::size_t cls = class_bytes(idx);
        for (std::size_t i = 0; i < kTransferBatch && !shelf.empty(); ++i) {
            PayloadBuffer b = std::move(shelf.back());
            shelf.pop_back();
            if (store.size() >= kBuffersPerClass) continue;  // count cap: drop
            if (resident_bytes_ + cls > budget_bytes_) {
                trim_for_locked(cls, idx);
                if (resident_bytes_ + cls > budget_bytes_) continue;  // still over: drop
            }
            resident_bytes_ += cls;
            store.push_back(std::move(b));
        }
        if (resident_bytes_ > high_water_) high_water_ = resident_bytes_;
        if (high_water_ > counters.rt_pool_resident_bytes) {
            counters.rt_pool_resident_bytes = high_water_;
        }
    }

    /// Frees shelves from the largest class downward until `incoming` bytes
    /// fit under the budget, never trimming the class being inserted into
    /// below its own incoming buffer's worth.
    void trim_for_locked(std::size_t incoming, std::size_t target_idx) {
        for (std::size_t c = kNumClasses; c-- > 0 && resident_bytes_ + incoming > budget_bytes_;) {
            if (c == target_idx) continue;  // prefer evicting other classes
            auto& store = free_[c];
            while (!store.empty() && resident_bytes_ + incoming > budget_bytes_) {
                resident_bytes_ -= store.back().cap;
                store.pop_back();
            }
        }
        // Last resort: shrink the target class itself.
        auto& store = free_[target_idx];
        while (!store.empty() && resident_bytes_ + incoming > budget_bytes_) {
            resident_bytes_ -= store.back().cap;
            store.pop_back();
        }
    }

    void trim_locked() { trim_for_locked(0, kNumClasses - 1); }

    mutable std::mutex mu_;
    std::array<std::vector<PayloadBuffer>, kNumClasses> free_;  // guarded by mu_
    std::size_t resident_bytes_ = 0;                            // guarded by mu_
    std::size_t high_water_ = 0;                                // guarded by mu_
    std::size_t budget_bytes_ = kDefaultBudgetBytes;            // guarded by mu_
    std::vector<RankCache> caches_;  ///< caches_[r] touched only by rank r's thread
};

struct Envelope {
    int source = -1;
    int tag = -1;
    int context = 0;
    PayloadBuffer payload;
};

struct RequestState {
    enum class Kind { Send, Recv };
    Kind kind = Kind::Send;

    // Receive descriptor.
    void* buf = nullptr;
    std::size_t count = 0;
    dt::Datatype type;
    int source = kAnySource;
    int tag = kAnyTag;
    int context = 0;
    int owner_rank = -1;
    std::uint64_t post_seq = 0;  ///< posted-receive ordering across PRQ shards

    // Filled when a matching envelope arrives. For rendezvous transfers the
    // envelope is header-only: the sender already moved `direct_bytes` bytes
    // straight into `buf` before the release-store on `matched`; the
    // acquire-load in the receiver's completion path publishes everything.
    std::atomic<bool> matched{false};
    bool zero_copy = false;
    std::size_t direct_bytes = 0;
    Envelope env;

    // Send requests: set by the delivery engine (possibly from another
    // rank's progress call) when the envelope reaches its mailbox.
    std::atomic<bool> delivered{false};

    // Set by wait() after unpacking.
    bool complete = false;
    RecvStatus status;
};

/// Bounded lock-free SPSC ring of envelopes: the fastpath lane between one
/// (source, dest) pair. The producer is the sending rank's thread (eager
/// inline delivery; under a SchedulePolicy all traffic routes through the
/// mutex-guarded overflow instead, so the ring's single-producer invariant
/// is structural). The consumer is always the destination rank's thread.
/// Head and tail live on their own cache lines so the producer's store
/// never bounces the consumer's line.
class LaneRing {
public:
    static constexpr std::uint32_t kSlots = 8;  // power of two

    bool push(Envelope&& e) {
        const std::uint32_t t = tail_.load(std::memory_order_relaxed);
        if (t - head_.load(std::memory_order_acquire) >= kSlots) return false;  // full
        slots_[t & (kSlots - 1)] = std::move(e);
        tail_.store(t + 1, std::memory_order_release);
        return true;
    }

    bool pop(Envelope& out) {
        const std::uint32_t h = head_.load(std::memory_order_relaxed);
        if (h == tail_.load(std::memory_order_acquire)) return false;  // empty
        out = std::move(slots_[h & (kSlots - 1)]);
        head_.store(h + 1, std::memory_order_release);
        return true;
    }

private:
    std::array<Envelope, kSlots> slots_;
    alignas(kCacheLine) std::atomic<std::uint32_t> head_{0};  ///< consumer cursor
    alignas(kCacheLine) std::atomic<std::uint32_t> tail_{0};  ///< producer cursor
};

/// One per-source delivery lane of a mailbox.
struct alignas(kCacheLine) Lane {
    LaneRing ring;
    /// Envelopes pushed by this lane's source but not yet matched to a
    /// receive (in the ring, the overflow list, or the receiver's stash).
    /// A rendezvous sender reading 0 (acquire) knows every earlier message
    /// of its own is fully matched, so claiming a posted receive cannot
    /// overtake an older message — the per-pair FIFO proof.
    std::atomic<std::uint32_t> unconsumed{0};
    /// Nonzero while the overflow list holds envelopes; the producer spills
    /// to overflow whenever this is set (or the ring is full), so every
    /// ring entry is always older than every overflow entry.
    std::atomic<std::uint32_t> overflow_count{0};
    std::deque<Envelope> overflow;  ///< guarded by Mailbox::overflow_mu
    /// Receiver-side staging: envelopes drained from the ring/overflow that
    /// matched no posted receive (the per-source unexpected queue). Touched
    /// only by the destination rank's thread — no lock.
    std::deque<Envelope> stash;
};

/// One rank's inbox, sharded by source. Matching state splits three ways:
/// the lanes (producer->consumer envelope transport), the posted-receive
/// registry (PRQ — shared with rendezvous senders under posted_mu), and the
/// per-lane stashes (receiver-private unexpected queues). The seq counter
/// and sleeper registration implement the notify-only-when-someone-sleeps
/// discipline: deliverers bump seq after every push and take wait_mu/cv
/// only when a waiter has registered; waiters spin on seq, then register
/// and re-check before blocking, with a timed wait as the self-healing
/// backstop (also what absorbs the injected delayed-wakeup fault).
struct Mailbox {
    int nranks = 0;
    std::unique_ptr<Lane[]> lanes;
    /// Bitmask of lanes holding undrained envelopes, one bit per source.
    /// Producers set their bit after pushing; the receiver claims whole
    /// words with exchange(0) and visits only the flagged lanes, so a
    /// drain costs O(lanes with traffic), not O(world size).
    std::unique_ptr<std::atomic<std::uint64_t>[]> dirty;
    int dirty_words = 0;

    // -- posted-receive registry (PRQ), guarded by posted_mu ------------------
    // Sharded by source with a wildcard sidecar; post_seq orders entries
    // across shards so matching remains exactly MPI's earliest-posted-first.
    std::mutex posted_mu;
    std::vector<std::deque<std::shared_ptr<RequestState>>> prq_by_src;
    std::deque<std::shared_ptr<RequestState>> prq_wild;
    std::uint64_t next_post_seq = 0;  // guarded by posted_mu

    // -- delivery pulse / sleep-wake ------------------------------------------
    alignas(kCacheLine) std::atomic<std::uint64_t> seq{0};  ///< bumped per delivery
    std::uint64_t drained_seq = 0;  ///< receiver-private: seq at last full drain
    std::atomic<int> sleepers{0};
    std::mutex wait_mu;
    std::condition_variable cv;

    // -- overflow -------------------------------------------------------------
    std::mutex overflow_mu;  ///< guards every lane's overflow deque

    void init(int n) {
        nranks = n;
        lanes = std::make_unique<Lane[]>(static_cast<std::size_t>(n));
        dirty_words = (n + 63) / 64;
        dirty = std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(dirty_words));
        for (int w = 0; w < dirty_words; ++w) dirty[static_cast<std::size_t>(w)].store(0);
        prq_by_src.resize(static_cast<std::size_t>(n));
    }
};

/// A packed envelope waiting in a destination's delivery queue.
struct InFlight {
    Envelope env;
    int defer = 0;  ///< progress passes this envelope may still be held
    std::shared_ptr<RequestState> sender;  ///< completed on delivery (may be null)
};

/// Per-destination shard of the delivery engine. Senders enqueue under mu;
/// drains are serialized per destination by the `claimed` flag — a second
/// rank calling progress skips a claimed destination instead of blocking,
/// so progress calls from different ranks never serialize on one lock.
struct DestQueue {
    std::mutex mu;
    Rng rng;                  ///< guarded by mu; seeded from (policy.seed, dest)
    std::deque<InFlight> q;   ///< guarded by mu
    std::atomic<std::uint64_t> count{0};
    std::atomic<bool> claimed{false};  ///< drain ownership
};

struct WorldState {
    int nranks = 0;
    std::vector<std::unique_ptr<Mailbox>> boxes;
    std::atomic<bool> aborted{false};
    std::atomic<int> next_context{1};

    SchedulePolicy policy;  ///< fixed for the duration of a run

    PayloadPool pool;  ///< recycled buffered-eager payload buffers

    /// Per-(src, dst)-pair protocol cost models (protocol.hpp). Lines are
    /// single-writer (sender thread feeds eager_send/rdzv, receiver thread
    /// feeds eager_unpack), fits are read lock-free from the send path.
    std::unique_ptr<ProtoTable> proto;
    /// When enabled, replaces measured durations with the analytic model
    /// (set before run(), read-only during one).
    SyntheticProtoCosts synthetic;

    // Delivery engine state, sharded per destination.
    std::vector<std::unique_ptr<DestQueue>> destq;
    std::atomic<std::uint64_t> inflight_count{0};

    /// Shared immutable request for sends that complete inline (eager
    /// delivery and successful rendezvous). wait()/test() never write to a
    /// request that is already complete, so one instance serves every rank.
    std::shared_ptr<RequestState> done_send;

    void abort_all() {
        aborted.store(true, std::memory_order_release);
        for (auto& b : boxes) {
            b->seq.fetch_add(1, std::memory_order_seq_cst);
            // Acquire/release the sleep mutex so every waiter either sees
            // the flag before sleeping or is inside wait(); notify after
            // unlocking so woken threads don't bounce off a held mutex.
            { std::lock_guard<std::mutex> lk(b->wait_mu); }
            b->cv.notify_all();
        }
    }
};

namespace {

bool matches(const RequestState& req, const Envelope& env) {
    return req.context == env.context && (req.source == kAnySource || req.source == env.source) &&
           (req.tag == kAnyTag || req.tag == env.tag);
}

/// Wakes the destination after a delivery: bump the pulse, and notify only
/// if a waiter registered as sleeping. seq_cst on both sides closes the
/// race: a producer that reads sleepers == 0 is ordered before the waiter's
/// registration, so the waiter's pre-sleep seq re-check must observe the
/// bump and skip the block.
void pulse(Mailbox& box, StatCounters& counters, bool notify) {
    box.seq.fetch_add(1, std::memory_order_seq_cst);
    if (notify && box.sleepers.load(std::memory_order_seq_cst) > 0) {
        { std::lock_guard<std::mutex> lk(box.wait_mu); }
        box.cv.notify_all();
        ++counters.rt_cv_notifies;
    }
}

/// Delivers one envelope along its lane: SPSC ring when it has room and no
/// overflow backlog exists, otherwise the mutex-guarded overflow list.
/// `force_overflow` routes SchedulePolicy traffic: deliveries made by a
/// drain-claim holder always use the overflow list, which keeps the ring's
/// single-producer invariant purely structural (the producer is only ever
/// the source rank's own thread).
void deliver_lane(WorldState& world, int dest, Envelope&& env, StatCounters& counters,
                  bool force_overflow = false, bool notify = true) {
    NNCOMM_CHECK_MSG(dest >= 0 && dest < world.nranks, "send to invalid rank");
    const int src = env.source;
    Mailbox& box = *world.boxes[static_cast<std::size_t>(dest)];
    Lane& lane = box.lanes[static_cast<std::size_t>(src)];
    lane.unconsumed.fetch_add(1, std::memory_order_relaxed);
    if (!force_overflow && lane.overflow_count.load(std::memory_order_acquire) == 0 &&
        lane.ring.push(std::move(env))) {
        ++counters.rt_lane_fast_deliveries;
    } else {
        {
            std::lock_guard<std::mutex> lk(box.overflow_mu);
            ++counters.rt_lock_acquisitions;
            lane.overflow.push_back(std::move(env));
            lane.overflow_count.fetch_add(1, std::memory_order_release);
        }
        ++counters.rt_lane_overflow_deliveries;
    }
    box.dirty[static_cast<std::size_t>(src) >> 6].fetch_or(std::uint64_t{1} << (src & 63),
                                                           std::memory_order_release);
    pulse(box, counters, notify);
}

/// Finds and removes the earliest-posted receive matching `env`, walking
/// the source shard and the wildcard sidecar merged by post_seq. Caller
/// holds posted_mu.
std::shared_ptr<RequestState> match_prq(Mailbox& box, const Envelope& env) {
    auto& ps = box.prq_by_src[static_cast<std::size_t>(env.source)];
    auto& pw = box.prq_wild;
    std::size_t i = 0, j = 0;
    while (i < ps.size() || j < pw.size()) {
        const bool from_src =
            j >= pw.size() || (i < ps.size() && ps[i]->post_seq < pw[j]->post_seq);
        auto& dq = from_src ? ps : pw;
        std::size_t& k = from_src ? i : j;
        if (matches(*dq[k], env)) {
            std::shared_ptr<RequestState> req = dq[k];
            dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(k));
            return req;
        }
        ++k;
    }
    return nullptr;
}

}  // namespace

/// One drain pass of one destination's delivery queue: delivers every
/// envelope whose defer budget is exhausted, in queue order, skipping any
/// envelope whose source already had an earlier envelope held back this
/// pass — deliveries interleave across sources but per-pair FIFO is exactly
/// the queue order. Each pass decrements at least one defer budget when the
/// queue is nonempty, so repeated passes always terminate. Perturbation
/// events observed here are charged to the driving rank's counters.
/// Returns the number of envelopes delivered. Caller holds the drain claim
/// and dq.mu.
std::size_t drain_dest(WorldState& world, int dest, DestQueue& dq, StatCounters& counters) {
    std::size_t delivered = 0;
    std::vector<int> held;  // sources with an earlier envelope still queued
    held.reserve(8);
    auto src_held = [&](int src) {
        for (int s : held) {
            if (s == src) return true;
        }
        return false;
    };
    for (auto it = dq.q.begin(); it != dq.q.end();) {
        const int src = it->env.source;
        if (src_held(src)) {
            ++it;
            continue;
        }
        if (it->defer > 0) {
            --it->defer;
            held.push_back(src);
            ++it;
            continue;
        }
        InFlight f = std::move(*it);
        it = dq.q.erase(it);
        dq.count.fetch_sub(1, std::memory_order_release);
        world.inflight_count.fetch_sub(1, std::memory_order_release);
        bool notify = true;
        if (world.policy.wakeup_delay_prob > 0 &&
            dq.rng.bernoulli(world.policy.wakeup_delay_prob)) {
            notify = false;
            ++counters.sched_wakeup_delays;
        }
        deliver_lane(world, dest, std::move(f.env), counters, /*force_overflow=*/true, notify);
        if (f.sender) {
            f.sender->delivered.store(true, std::memory_order_release);
            // Wake the sender's own waiter too: the send-side wait parks on
            // the sender's mailbox pulse, and without this bump a send
            // completed by another rank's drain has no wakeup at all — the
            // lost notify behind the oversubscribed-contention livelock.
            // The wakeup-delay fault suppresses it like any other notify;
            // the timed wait self-heals.
            const int owner = f.sender->owner_rank;
            if (owner >= 0 && owner < world.nranks) {
                pulse(*world.boxes[static_cast<std::size_t>(owner)], counters, notify);
            }
        }
        ++delivered;
    }
    return delivered;
}

/// Delivery-engine progress: walk the destination shards starting at the
/// driving rank's own inbox, claim each unclaimed nonempty queue, and drain
/// it. A queue another rank is already draining is skipped, not waited on.
std::size_t progress_world(WorldState& world, int self, StatCounters& counters) {
    if (world.inflight_count.load(std::memory_order_acquire) == 0) return 0;
    std::size_t delivered = 0;
    const int n = world.nranks;
    for (int off = 0; off < n; ++off) {
        const int d = (self + off) % n;
        DestQueue& dq = *world.destq[static_cast<std::size_t>(d)];
        if (dq.count.load(std::memory_order_acquire) == 0) continue;
        if (dq.claimed.exchange(true, std::memory_order_acquire)) continue;  // owned elsewhere
        {
            std::lock_guard<std::mutex> lk(dq.mu);
            ++counters.rt_lock_acquisitions;
            delivered += drain_dest(world, d, dq, counters);
        }
        dq.claimed.store(false, std::memory_order_release);
    }
    return delivered;
}

}  // namespace detail

using detail::Envelope;
using detail::Mailbox;
using detail::RequestState;
using detail::WorldState;

// ---------------------------------------------------------------------------
// Comm

namespace {

/// Bounded spin before a waiter registers as a sleeper. Kept short: the
/// check is one relaxed load of the mailbox pulse, and on an oversubscribed
/// host the yields hand the slice to the rank that will produce the data.
constexpr int kSpinChecks = 16;
constexpr int kSpinYields = 4;
constexpr auto kSleepSlice = std::chrono::microseconds(200);

/// Dense copies below this size are not phase-timed: the two clock reads
/// would cost more than the copy. Engine-driven noncontiguous packs are
/// always timed — their chunks amortize the clock.
constexpr std::size_t kTimedCopyMinBytes = 4096;

/// Messages below this size never feed the protocol cost model: the two
/// clock reads would outweigh the copy being measured, and the learned
/// threshold is clamped above this anyway (ProtoTable::kMinThreshold).
constexpr std::size_t kAdaptiveObserveMinBytes = 1024;

/// One cost-model observation in nanoseconds: the measured duration, or the
/// analytic value when the world runs synthetic protocol costs.
double observed_ns(const WorldState& world, double base_ns, double per_byte_ns,
                   std::size_t bytes, std::chrono::steady_clock::time_point t0) {
    if (world.synthetic.enabled) {
        return base_ns + per_byte_ns * static_cast<double>(bytes);
    }
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0)
            .count());
}

}  // namespace

std::size_t Comm::effective_rendezvous_threshold(int dest, const dt::Datatype& type) {
    std::size_t thr = rendezvous_threshold_;
    if (adaptive_protocol_engaged()) {
        thr = world_->proto->learned_threshold(rank_, dest, family_of(type),
                                               rendezvous_threshold_);
    }
    if (thr > counters_.rt_proto_threshold_bytes_hi) counters_.rt_proto_threshold_bytes_hi = thr;
    if (counters_.rt_proto_threshold_bytes_lo == 0 ||
        thr < counters_.rt_proto_threshold_bytes_lo) {
        counters_.rt_proto_threshold_bytes_lo = thr;
    }
    return thr;
}

int Comm::size() const { return world_->nranks; }

/// Drains every lane of this rank's mailbox (rings first, then overflow —
/// ring entries are always older) and runs arrival matching: each envelope
/// goes to the earliest matching posted receive, or to its lane's stash
/// (the per-source unexpected queue). Returns true if any envelope was
/// processed. Only the owning rank's thread calls this.
bool Comm::process_arrivals() {
    Mailbox& box = *world_->boxes[static_cast<std::size_t>(rank_)];
    const std::uint64_t pulse_now = box.seq.load(std::memory_order_seq_cst);
    if (pulse_now == box.drained_seq) return false;
    box.drained_seq = pulse_now;

    bool any = false;
    std::unique_lock<std::mutex> prq_lk;  // taken lazily, once per drain
    for (int w = 0; w < box.dirty_words; ++w) {
        std::uint64_t bits =
            box.dirty[static_cast<std::size_t>(w)].exchange(0, std::memory_order_acquire);
        while (bits != 0) {
            const int src = w * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            detail::Lane& lane = box.lanes[static_cast<std::size_t>(src)];

            // Every ring entry is older than every overflow entry (the
            // producer spills only while a backlog exists), so drain the
            // ring fully first, then the overflow.
            const bool spill = lane.overflow_count.load(std::memory_order_acquire) > 0;
            if (!prq_lk.owns_lock()) {
                prq_lk = std::unique_lock<std::mutex>(box.posted_mu);
                ++counters_.rt_lock_acquisitions;
            }
            // Match in arrival order; misses go to the stash. The
            // unconsumed decrement for a match happens after the commit
            // (matched release-store) inside the same posted_mu critical
            // section: a rendezvous sender that observes the decremented
            // count must acquire posted_mu to touch the registry, which
            // orders it after this commit — per-pair FIFO holds.
            auto sort_one = [&](Envelope&& env) {
                std::shared_ptr<RequestState> req = detail::match_prq(box, env);
                if (req) {
                    req->env = std::move(env);
                    req->matched.store(true, std::memory_order_release);
                    lane.unconsumed.fetch_sub(1, std::memory_order_release);
                } else {
                    lane.stash.push_back(std::move(env));
                }
            };
            Envelope e;
            while (lane.ring.pop(e)) sort_one(std::move(e));
            if (spill) {
                std::lock_guard<std::mutex> olk(box.overflow_mu);
                ++counters_.rt_lock_acquisitions;
                while (!lane.overflow.empty()) {
                    sort_one(std::move(lane.overflow.front()));
                    lane.overflow.pop_front();
                }
                lane.overflow_count.store(0, std::memory_order_release);
            }
            any = true;
        }
    }
    return any;
}

/// Completion check for a receive request: fast-path the matched flag, and
/// only re-drain the lanes when the mailbox pulse moved since the last
/// drain. The receiver-private drained_seq makes repeated calls from a
/// spin loop nearly free.
bool Comm::try_complete_recv(RequestState& req) {
    if (req.matched.load(std::memory_order_acquire)) return true;
    process_arrivals();
    return req.matched.load(std::memory_order_acquire);
}

std::shared_ptr<RequestState> Comm::alloc_request() {
    constexpr std::size_t kCacheCap = 256;
    constexpr std::size_t kProbes = 4;
    const std::size_t n = req_cache_.size();
    for (std::size_t probe = 0; probe < kProbes && probe < n; ++probe) {
        req_cursor_ = req_cursor_ + 1 < n ? req_cursor_ + 1 : 0;
        std::shared_ptr<RequestState>& slot = req_cache_[req_cursor_];
        if (slot.use_count() == 1) {
            // Idle: only the cache references it. Scrub and hand it out.
            RequestState& r = *slot;
            r.post_seq = 0;
            r.matched.store(false, std::memory_order_relaxed);
            r.zero_copy = false;
            r.direct_bytes = 0;
            r.env = Envelope{};
            r.delivered.store(false, std::memory_order_relaxed);
            r.complete = false;
            r.status = RecvStatus{};
            return slot;
        }
    }
    auto r = std::make_shared<RequestState>();
    if (n < kCacheCap) req_cache_.push_back(r);
    return r;
}

Request Comm::irecv_ctx(void* buf, std::size_t count, const dt::Datatype& type, int source,
                        int tag, int context) {
    NNCOMM_CHECK_MSG(source == kAnySource || (source >= 0 && source < size()),
                     "irecv: invalid source rank");
    std::shared_ptr<RequestState> req = alloc_request();
    req->kind = RequestState::Kind::Recv;
    req->buf = buf;
    req->count = count;
    req->type = type;
    req->source = source;
    req->tag = tag;
    req->context = context;
    req->owner_rank = rank_;

    Mailbox& box = *world_->boxes[static_cast<std::size_t>(rank_)];
    process_arrivals();  // bring the unexpected queues up to date

    // Unexpected-queue scan: take the earliest matching envelope. The
    // stashes are receiver-private, so the common posted-receive miss and
    // the probe-then-recv hit are both lock-free.
    const int lo = source == kAnySource ? 0 : source;
    const int hi = source == kAnySource ? box.nranks - 1 : source;
    for (int src = lo; src <= hi; ++src) {
        detail::Lane& lane = box.lanes[static_cast<std::size_t>(src)];
        for (auto it = lane.stash.begin(); it != lane.stash.end(); ++it) {
            if (detail::matches(*req, *it)) {
                req->env = std::move(*it);
                lane.stash.erase(it);
                req->matched.store(true, std::memory_order_relaxed);  // same thread consumes
                lane.unconsumed.fetch_sub(1, std::memory_order_release);
                return Request(std::move(req));
            }
        }
    }

    // No queued message: register in the PRQ so arrival matching and
    // rendezvous senders can find the receive.
    {
        std::lock_guard<std::mutex> lk(box.posted_mu);
        ++counters_.rt_lock_acquisitions;
        req->post_seq = box.next_post_seq++;
        if (source == kAnySource) {
            box.prq_wild.push_back(req);
        } else {
            box.prq_by_src[static_cast<std::size_t>(source)].push_back(req);
        }
    }
    return Request(std::move(req));
}

Request Comm::irecv(void* buf, std::size_t count, const dt::Datatype& type, int source,
                    int tag) {
    return irecv_ctx(buf, count, type, source, tag, context_);
}

/// Packs `buf` into an envelope exactly as the buffered-eager path always
/// has: contiguous layouts in one copy, noncontiguous layouts through the
/// configured pipelined engine, with the same Comm/Pack/Search accounting.
/// The payload buffer comes from this rank's pool cache; zero-byte messages
/// never touch the pool or the allocator at all.
Envelope Comm::pack_envelope(const void* buf, std::size_t count, const dt::Datatype& type,
                             int dest, int tag, int context, std::size_t total) {
    NNCOMM_CHECK(type.valid());
    Envelope env;
    env.source = rank_;
    env.tag = tag;
    env.context = context;

    if (total == 0) return env;  // header-only: zero-byte sends are pure synchronization

    // Feed the eager_send cost line: the staging copy below is exactly the
    // sender-side cost the eager protocol pays that rendezvous avoids.
    const bool observe =
        total >= kAdaptiveObserveMinBytes && adaptive_protocol_engaged();
    std::chrono::steady_clock::time_point t0;
    if (observe && !world_->synthetic.enabled) t0 = std::chrono::steady_clock::now();

    env.payload = world_->pool.acquire(total, rank_, counters_);
    counters_.rt_bytes_copied += total;  // sender-side staging copy
    const auto& flat = type.flat();
    const bool fully_dense =
        flat.contiguous() && static_cast<std::ptrdiff_t>(flat.size()) == flat.extent();
    if (fully_dense) {
        // Contiguous fast path: one copy onto the wire, all Comm time.
        // Copies below the timing cutoff go unclocked: two steady_clock
        // reads cost more than the copy itself and would dominate the
        // small-message rate the transport is built for.
        if (total >= kTimedCopyMinBytes) {
            PhaseScope scope(timers_, Phase::Comm);
            std::memcpy(env.payload.data(), buf, env.payload.size());
        } else {
            std::memcpy(env.payload.data(), buf, env.payload.size());
        }
    } else {
        // Noncontiguous: pipelined chunks through the configured engine.
        auto engine = dt::make_engine(engine_kind_, buf, type, count, engine_config_);
        std::size_t off = 0;
        dt::ChunkView chunk;
        while (engine->next_chunk(chunk)) {
            // Moving the chunk onto the wire is Comm time; the engine
            // internally charged its Pack/Search time.
            PhaseScope scope(timers_, Phase::Comm);
            if (chunk.dense) {
                for (const auto& [ptr, len] : chunk.iov) {
                    std::memcpy(env.payload.data() + off, ptr, len);
                    off += len;
                }
            } else {
                std::memcpy(env.payload.data() + off, chunk.packed.data(), chunk.packed.size());
                off += chunk.packed.size();
            }
        }
        NNCOMM_CHECK(off == env.payload.size());
        timers_ += engine->timers();
        counters_ += engine->counters();
    }
    if (observe) {
        const auto& syn = world_->synthetic;
        world_->proto->observe_eager_send(
            rank_, dest, family_of(type), static_cast<double>(total),
            observed_ns(*world_, syn.eager_send_base_ns, syn.eager_send_per_byte_ns, total, t0));
        ++counters_.rt_proto_adapt_updates;
    }
    return env;
}

/// Attempts the zero-copy rendezvous transfer: if the matching receive is
/// already posted at the destination, the payload moves straight into the
/// receiver's buffer in a single pass (memcpy for contiguous-to-contiguous,
/// plan kernels or engine-chunk streaming otherwise) and no envelope buffer
/// is ever allocated. Returns false — caller falls back to buffered eager —
/// when the receive is not posted, the message is empty or below an Auto
/// threshold, the hint forces Eager, or a SchedulePolicy is active (deferred
/// envelopes must all route through the delivery queues to keep per-pair
/// FIFO intact).
///
/// Order safety: our lane's `unconsumed` count must be zero — every earlier
/// message of ours is fully matched — before a posted receive may be
/// claimed. The count is decremented only after a match commit is published
/// under posted_mu, so once we hold posted_mu the registry reflects all of
/// our earlier traffic and claiming the earliest matching posted entry is
/// exactly what arrival matching would have done.
bool Comm::try_rendezvous(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                          int tag, int context, Protocol proto, std::size_t total) {
    if (proto == Protocol::Eager || world_->policy.enabled) return false;
    if (proto == Protocol::Rma) proto = Protocol::Auto;  // no window here: resolve like Auto
    NNCOMM_CHECK(type.valid());
    // Boundary contract (mirrored by coll/persistent.cpp, coll/schedule.cpp
    // phase_protocol and netsim/sim.cpp): rendezvous iff total > 0 AND
    // total >= threshold. `total < threshold_` below is the exact
    // complement of the >= convention — a message of exactly threshold
    // bytes attempts rendezvous; a zero-byte message never does, even at
    // threshold 0.
    if (total == 0) return false;
    if (proto == Protocol::Auto) {
        // Auto resolution: the effective threshold is the learned per-pair
        // crossover when adaptation is engaged and confident, the static
        // communicator threshold otherwise.
        if (total < effective_rendezvous_threshold(dest, type)) {
            ++counters_.rt_proto_eager_chosen;
            return false;
        }
        ++counters_.rt_proto_rdzv_chosen;
    }
    NNCOMM_CHECK_MSG(dest >= 0 && dest < size(), "send to invalid rank");

    Envelope header;
    header.source = rank_;
    header.tag = tag;
    header.context = context;

    Mailbox& box = *world_->boxes[static_cast<std::size_t>(dest)];
    detail::Lane& lane = box.lanes[static_cast<std::size_t>(rank_)];
    if (lane.unconsumed.load(std::memory_order_acquire) != 0) {
        return false;  // older messages of ours still in flight: keep FIFO, go eager
    }

    std::unique_lock<std::mutex> lk(box.posted_mu);
    ++counters_.rt_lock_acquisitions;
    std::shared_ptr<RequestState> r = detail::match_prq(box, header);
    if (!r) return false;  // unposted: degrade to buffered eager
    const auto& rflat = r->type.flat();
    NNCOMM_CHECK_MSG(total <= rflat.size() * r->count, "message longer than receive buffer");

    // Feed the rdzv cost line: the single direct pass below is the whole
    // marginal cost the rendezvous protocol pays once the claim succeeded.
    const bool observe =
        total >= kAdaptiveObserveMinBytes && adaptive_protocol_engaged();
    std::chrono::steady_clock::time_point t0;
    if (observe && !world_->synthetic.enabled) t0 = std::chrono::steady_clock::now();

    // The copy runs while posted_mu pins the request: the receiver's wait()
    // cannot observe a half-written buffer (matched is still false), an
    // aborting world cannot unwind the receive out from under us, and the
    // release-store on matched gives the bytes their happens-before edge
    // into the receiving thread.
    const auto& sflat = type.flat();
    const bool sdense =
        sflat.contiguous() && static_cast<std::ptrdiff_t>(sflat.size()) == sflat.extent();
    const bool rdense =
        rflat.contiguous() && static_cast<std::ptrdiff_t>(rflat.size()) == rflat.extent();
    auto* rbase = static_cast<std::byte*>(r->buf);

    if (sdense && rdense) {
        PhaseScope scope(timers_, Phase::Comm);
        std::memcpy(rbase, buf, total);
    } else if (!sdense && rdense) {
        // Gather: scattered sender layout into flat destination memory. All
        // kernel classes — Irregular included — are plan-driven now, so the
        // engine path survives only behind the fastpath escape hatch.
        const dt::PackPlan& plan = type.plan();
        if (engine_config_.enable_plan_fastpath) {
            PhaseScope scope(timers_, Phase::Pack);
            ++counters_.plan_hits;
            plan.pack(sflat, static_cast<const std::byte*>(buf), count, {rbase, total},
                      &counters_);
        } else {
            auto engine = dt::make_engine(engine_kind_, buf, type, count, engine_config_);
            std::size_t off = 0;
            dt::ChunkView chunk;
            while (engine->next_chunk(chunk)) {
                PhaseScope scope(timers_, Phase::Comm);
                if (chunk.dense) {
                    for (const auto& [ptr, len] : chunk.iov) {
                        std::memcpy(rbase + off, ptr, len);
                        off += len;
                    }
                } else {
                    std::memcpy(rbase + off, chunk.packed.data(), chunk.packed.size());
                    off += chunk.packed.size();
                }
            }
            NNCOMM_CHECK(off == total);
            timers_ += engine->timers();
            counters_ += engine->counters();
        }
    } else if (sdense && !rdense) {
        // Scatter: flat sender memory into the receiver's layout.
        const std::span<const std::byte> src(static_cast<const std::byte*>(buf), total);
        const dt::PackPlan& rplan = r->type.plan();
        PhaseScope scope(timers_, Phase::Pack);
        if (engine_config_.enable_plan_fastpath) {
            ++counters_.plan_hits;
            rplan.unpack(rflat, rbase, r->count, src, &counters_);
        } else {
            dt::TypeCursor cur(&rflat, r->count);
            const std::size_t n = dt::unpack_bytes(rbase, cur, src);
            NNCOMM_CHECK(n == total);
        }
    } else {
        // Both sides noncontiguous: the engine streams packed chunks out of
        // the sender layout and each chunk scatters straight into the
        // receiver layout at its running stream position — still one pass
        // over the payload with no staging buffer.
        auto engine = dt::make_engine(engine_kind_, buf, type, count, engine_config_);
        const dt::PackPlan& rplan = r->type.plan();
        const bool rspec = engine_config_.enable_plan_fastpath;
        if (rspec) ++counters_.plan_hits;
        dt::TypeCursor cur(&rflat, r->count);
        std::uint64_t pos = 0;
        auto scatter = [&](const std::byte* p, std::size_t len) {
            const std::span<const std::byte> piece(p, len);
            if (rspec) {
                rplan.unpack_range(rflat, rbase, r->count, pos, piece, &counters_);
            } else {
                const std::size_t n = dt::unpack_bytes(rbase, cur, piece);
                NNCOMM_CHECK(n == len);
            }
            pos += len;
        };
        dt::ChunkView chunk;
        while (engine->next_chunk(chunk)) {
            PhaseScope scope(timers_, Phase::Pack);
            if (chunk.dense) {
                for (const auto& [ptr, len] : chunk.iov) scatter(ptr, len);
            } else {
                scatter(chunk.packed.data(), chunk.packed.size());
            }
        }
        NNCOMM_CHECK(pos == total);
        timers_ += engine->timers();
        counters_ += engine->counters();
    }

    if (observe) {
        const auto& syn = world_->synthetic;
        world_->proto->observe_rdzv(
            rank_, dest, family_of(type), static_cast<double>(total),
            observed_ns(*world_, syn.rdzv_base_ns, syn.rdzv_per_byte_ns, total, t0));
        ++counters_.rt_proto_adapt_updates;
    }

    r->env = std::move(header);  // header only: carries source/tag for RecvStatus
    r->direct_bytes = total;
    r->zero_copy = true;
    r->matched.store(true, std::memory_order_release);
    lk.unlock();
    detail::pulse(box, counters_, /*notify=*/true);
    ++counters_.rt_zero_copy_msgs;
    counters_.rt_bytes_copied += total;  // the single pass
    return true;
}

/// Chunk-pipelined rendezvous for producer-driven staged sends: the fused
/// Pack+Send path of coll::CollRequest. Claim logic is identical to
/// try_rendezvous (same FIFO guard, same PRQ claim under posted_mu, same
/// degradation rules); the difference is the copy loop — instead of packing
/// the whole payload into a staging buffer and then copying it cold, the
/// producer fills one pipeline_chunk-sized slice at the front of `stage`
/// and the slice is copied (or scattered) into the receiver's buffer while
/// its bytes are still cache-hot, so the pack of chunk k+1 overlaps the
/// copy of chunk k through the cache hierarchy.
bool Comm::try_rendezvous_staged_i(
    int dest, int tag, std::size_t total, PackFamily family, std::span<std::byte> stage,
    const std::function<void(std::uint64_t, std::span<std::byte>)>& produce) {
    if (world_->policy.enabled) return false;  // all policy traffic routes buffered
    if (total == 0) return false;
    NNCOMM_CHECK_MSG(dest >= 0 && dest < size(), "send to invalid rank");
    NNCOMM_CHECK_MSG(!stage.empty(), "pipelined rendezvous needs a staging window");
    const int context = context_ + detail::kInternalContextOffset;

    Envelope header;
    header.source = rank_;
    header.tag = tag;
    header.context = context;

    Mailbox& box = *world_->boxes[static_cast<std::size_t>(dest)];
    detail::Lane& lane = box.lanes[static_cast<std::size_t>(rank_)];
    if (lane.unconsumed.load(std::memory_order_acquire) != 0) {
        return false;  // older messages of ours still in flight: keep FIFO
    }

    std::unique_lock<std::mutex> lk(box.posted_mu);
    ++counters_.rt_lock_acquisitions;
    std::shared_ptr<RequestState> r = detail::match_prq(box, header);
    if (!r) return false;  // unposted: caller stages and sends buffered
    const auto& rflat = r->type.flat();
    NNCOMM_CHECK_MSG(total <= rflat.size() * r->count, "message longer than receive buffer");

    const bool observe =
        total >= kAdaptiveObserveMinBytes && adaptive_protocol_engaged();
    const auto t0 = std::chrono::steady_clock::now();

    const bool rdense =
        rflat.contiguous() && static_cast<std::ptrdiff_t>(rflat.size()) == rflat.extent();
    auto* rbase = static_cast<std::byte*>(r->buf);
    const std::size_t chunk = engine_config_.pipeline_chunk > 0
                                  ? std::min(engine_config_.pipeline_chunk, stage.size())
                                  : stage.size();
    dt::TypeCursor cur(&rflat, r->count);  // used only off the plan fastpath
    std::uint64_t chunks = 0;
    for (std::size_t pos = 0; pos < total; pos += chunk) {
        const std::size_t n = std::min(chunk, total - pos);
        std::span<std::byte> slice = stage.first(n);
        produce(static_cast<std::uint64_t>(pos), slice);
        const std::span<const std::byte> piece(slice.data(), n);
        if (rdense) {
            std::memcpy(rbase + pos, piece.data(), n);
        } else if (engine_config_.enable_plan_fastpath) {
            r->type.plan().unpack_range(rflat, rbase, r->count, pos, piece, &counters_);
        } else {
            const std::size_t u = dt::unpack_bytes(rbase, cur, piece);
            NNCOMM_CHECK(u == n);
        }
        ++chunks;
    }
    timers_.add_ns(Phase::Comm,
                   static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                  std::chrono::steady_clock::now() - t0)
                                                  .count()));
    if (observe) {
        const auto& syn = world_->synthetic;
        world_->proto->observe_rdzv(
            rank_, dest, family, static_cast<double>(total),
            observed_ns(*world_, syn.rdzv_base_ns, syn.rdzv_per_byte_ns, total, t0));
        ++counters_.rt_proto_adapt_updates;
    }

    r->env = std::move(header);
    r->direct_bytes = total;
    r->zero_copy = true;
    r->matched.store(true, std::memory_order_release);
    lk.unlock();
    detail::pulse(box, counters_, /*notify=*/true);
    ++counters_.rt_zero_copy_msgs;
    ++counters_.rt_rdzv_pipelined_msgs;
    counters_.rt_rdzv_pipelined_chunks += chunks;
    counters_.rt_bytes_copied += total;  // the copy-out pass
    return true;
}

std::size_t Comm::progress() {
    if (!world_->policy.enabled) return 0;
    return detail::progress_world(*world_, rank_, counters_);
}

void Comm::send_ctx(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                    int tag, int context, Protocol proto) {
    if (!world_->policy.enabled) {
        // Zero-copy rendezvous when the receive is already posted; otherwise
        // the eager fast path — identical to the unperturbed runtime: pack
        // and push straight onto the destination lane, no request state.
        const std::size_t total = type.size() * count;
        if (try_rendezvous(buf, count, type, dest, tag, context, proto, total)) return;
        Envelope env = pack_envelope(buf, count, type, dest, tag, context, total);
        detail::deliver_lane(*world_, dest, std::move(env), counters_);
        return;
    }
    Request r = isend_ctx(buf, count, type, dest, tag, context, proto);
    wait(r);
}

Request Comm::isend_ctx(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                        int tag, int context, Protocol proto) {
    NNCOMM_CHECK_MSG(dest >= 0 && dest < size(), "send to invalid rank");
    const SchedulePolicy& pol = world_->policy;
    if (!pol.enabled) {
        // Transfer completes inline — rendezvous straight into the posted
        // receive, or buffered-eager delivery onto the destination lane —
        // so the request is born complete and the shared singleton serves.
        const std::size_t total = type.size() * count;
        if (!try_rendezvous(buf, count, type, dest, tag, context, proto, total)) {
            Envelope env = pack_envelope(buf, count, type, dest, tag, context, total);
            detail::deliver_lane(*world_, dest, std::move(env), counters_);
        }
        return Request(world_->done_send);
    }
    Envelope env = pack_envelope(buf, count, type, dest, tag, context, type.size() * count);
    auto req = std::make_shared<RequestState>();
    req->kind = RequestState::Kind::Send;
    req->owner_rank = rank_;

    // Genuinely pending: enqueue on the destination's delivery queue under
    // the seeded schedule. All perturbation draws for one destination share
    // that destination's RNG stream under its queue lock.
    const std::size_t bytes = env.payload.size();
    const bool internal = context >= detail::kInternalContextOffset;
    int stall_spins = 0;
    detail::DestQueue& dq = *world_->destq[static_cast<std::size_t>(dest)];
    {
        PhaseScope scope(timers_, Phase::Comm);
        std::lock_guard<std::mutex> lk(dq.mu);
        ++counters_.rt_lock_acquisitions;
        Rng& rng = dq.rng;

        detail::InFlight f;
        f.env = std::move(env);
        f.sender = req;
        if (pol.defer_prob > 0 && pol.max_defer > 0 && rng.bernoulli(pol.defer_prob)) {
            f.defer = static_cast<int>(rng.uniform_u64(1, static_cast<std::uint64_t>(pol.max_defer)));
        }
        if (pol.use_latency_model) {
            const double transit_us = pol.latency_us + static_cast<double>(bytes) * pol.us_per_byte;
            const double quantum = pol.defer_quantum_us > 0 ? pol.defer_quantum_us : 1.0;
            const double passes = transit_us / quantum;
            f.defer += passes > 64.0 ? 64 : static_cast<int>(passes);
        }
        if (f.defer > 0) ++counters_.sched_deferrals;

        // Bounded reordering fault: only internal-context (collective)
        // traffic, which is epoch-tagged and must survive same-pair FIFO
        // violations. User point-to-point ordering is never perturbed.
        auto pos = dq.q.end();
        if (internal && pol.reorder_prob > 0 && pol.max_reorder > 0 &&
            rng.bernoulli(pol.reorder_prob)) {
            const int jump =
                static_cast<int>(rng.uniform_u64(1, static_cast<std::uint64_t>(pol.max_reorder)));
            int overtaken = 0;
            while (pos != dq.q.begin() && overtaken < jump) {
                auto prev = std::prev(pos);
                if (prev->env.source == rank_) {
                    if (prev->env.context < detail::kInternalContextOffset) break;
                    ++overtaken;
                }
                pos = prev;
            }
            if (overtaken > 0) ++counters_.sched_reorders;
        }
        dq.q.insert(pos, std::move(f));
        dq.count.fetch_add(1, std::memory_order_release);
        world_->inflight_count.fetch_add(1, std::memory_order_release);
        ++counters_.sched_pending_sends;

        if (pol.stall_prob > 0 && pol.max_stall_spins > 0 && rng.bernoulli(pol.stall_prob)) {
            stall_spins =
                static_cast<int>(rng.uniform_u64(1, static_cast<std::uint64_t>(pol.max_stall_spins)));
        }
    }
    if (stall_spins > 0) {
        ++counters_.sched_stalls;
        for (int i = 0; i < stall_spins; ++i) std::this_thread::yield();
    }
    return Request(std::move(req));
}

void Comm::send(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                int tag) {
    send_ctx(buf, count, type, dest, tag, context_);
}

Request Comm::isend(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                    int tag) {
    return isend_ctx(buf, count, type, dest, tag, context_);
}

RecvStatus Comm::wait(Request& request) {
    NNCOMM_CHECK_MSG(request.valid(), "wait on null request");
    RequestState& req = *request.state_;
    if (req.complete) return req.status;

    if (req.kind == RequestState::Kind::Send) {
        // Pending buffered send: complete when the envelope reaches the
        // destination mailbox. This rank drives the delivery engine itself,
        // but another rank's drain pass may complete the send first — that
        // drain pulses this rank's mailbox (drain_dest), so after a bounded
        // spin the waiter parks in a registered timed sleep instead of
        // yield-spinning. An unbounded yield loop here starves the scheduler
        // when many oversubscribed copies contend for one core (the
        // PersistentPlanRepeatedExecutes livelock).
        Mailbox& sbox = *world_->boxes[static_cast<std::size_t>(req.owner_rank)];
        int spins = 0;
        while (!req.delivered.load(std::memory_order_acquire)) {
            if (progress() > 0) continue;
            if (req.delivered.load(std::memory_order_acquire)) break;
            if (world_->aborted.load(std::memory_order_acquire)) {
                throw AbortedError("runtime aborted while waiting for a send");
            }
            ++spins;
            if (spins <= kSpinChecks) continue;
            if (spins <= kSpinChecks + kSpinYields) {
                std::this_thread::yield();
                continue;
            }
            spins = 0;
            sbox.sleepers.fetch_add(1, std::memory_order_seq_cst);
            const std::uint64_t seen = sbox.seq.load(std::memory_order_seq_cst);
            {
                std::unique_lock<std::mutex> lk(sbox.wait_mu);
                if (sbox.seq.load(std::memory_order_seq_cst) == seen &&
                    !req.delivered.load(std::memory_order_acquire) &&
                    !world_->aborted.load(std::memory_order_acquire)) {
                    ++counters_.rt_cv_waits;
                    sbox.cv.wait_for(lk, kSleepSlice);
                }
            }
            sbox.sleepers.fetch_sub(1, std::memory_order_release);
        }
        req.complete = true;
        return req.status;
    }

    Mailbox& box = *world_->boxes[static_cast<std::size_t>(req.owner_rank)];
    if (!world_->policy.enabled) {
        // Spin-then-sleep: a bounded burst of pulse checks (one relaxed
        // load when nothing changed), a few yields, then a registered
        // sleep. The deliverer notifies only when it sees the registration;
        // the timed wait is the self-healing backstop. A matched request
        // always completes, even when the world is aborting — the message
        // is here; consuming it cannot mask the root cause.
        int spins = 0;
        while (!try_complete_recv(req)) {
            if (world_->aborted.load(std::memory_order_acquire)) {
                throw AbortedError("runtime aborted while waiting for a message");
            }
            ++spins;
            if (spins <= kSpinChecks) {
                continue;
            }
            if (spins <= kSpinChecks + kSpinYields) {
                std::this_thread::yield();
                continue;
            }
            spins = 0;
            box.sleepers.fetch_add(1, std::memory_order_seq_cst);
            {
                std::unique_lock<std::mutex> lk(box.wait_mu);
                if (box.seq.load(std::memory_order_seq_cst) == box.drained_seq &&
                    !req.matched.load(std::memory_order_acquire) &&
                    !world_->aborted.load(std::memory_order_acquire)) {
                    ++counters_.rt_cv_waits;
                    box.cv.wait_for(lk, kSleepSlice);
                }
            }
            box.sleepers.fetch_sub(1, std::memory_order_release);
        }
    } else {
        // Perturbed schedule: this waiter must also drive the delivery
        // engine, and re-polls on a timeout so suppressed notifications
        // (the delayed-wakeup fault) self-heal.
        for (;;) {
            const bool delivered_any = progress() > 0;
            if (try_complete_recv(req)) break;
            if (world_->aborted.load(std::memory_order_acquire)) {
                throw AbortedError("runtime aborted while waiting for a message");
            }
            if (!delivered_any) {
                box.sleepers.fetch_add(1, std::memory_order_seq_cst);
                {
                    std::unique_lock<std::mutex> lk(box.wait_mu);
                    if (box.seq.load(std::memory_order_seq_cst) == box.drained_seq &&
                        !req.matched.load(std::memory_order_acquire) &&
                        !world_->aborted.load(std::memory_order_acquire)) {
                        ++counters_.rt_cv_waits;
                        box.cv.wait_for(lk, std::chrono::microseconds(100));
                    }
                }
                box.sleepers.fetch_sub(1, std::memory_order_release);
            }
        }
    }

    return finish_recv(req);
}

void Comm::pulse_rank(int rank) {
    NNCOMM_CHECK_MSG(rank >= 0 && rank < size(), "pulse_rank on invalid rank");
    detail::pulse(*world_->boxes[static_cast<std::size_t>(rank)], counters_, /*notify=*/true);
}

void Comm::wait_until(const std::function<bool()>& pred) {
    Mailbox& box = *world_->boxes[static_cast<std::size_t>(rank_)];
    int spins = 0;
    while (!pred()) {
        if (world_->aborted.load(std::memory_order_acquire)) {
            throw AbortedError("runtime aborted while waiting for a one-sided epoch");
        }
        if (progress() > 0) continue;
        ++spins;
        if (spins <= kSpinChecks) continue;
        if (spins <= kSpinChecks + kSpinYields) {
            std::this_thread::yield();
            continue;
        }
        spins = 0;
        box.sleepers.fetch_add(1, std::memory_order_seq_cst);
        const std::uint64_t seen = box.seq.load(std::memory_order_seq_cst);
        // Re-check after registering but outside wait_mu: the predicate may
        // drive delivery into this very mailbox, whose pulse takes wait_mu.
        if (!pred()) {
            std::unique_lock<std::mutex> lk(box.wait_mu);
            if (box.seq.load(std::memory_order_seq_cst) == seen &&
                !world_->aborted.load(std::memory_order_acquire)) {
                ++counters_.rt_cv_waits;
                box.cv.wait_for(lk, kSleepSlice);
            }
        }
        box.sleepers.fetch_sub(1, std::memory_order_release);
    }
}

RecvStatus Comm::finish_recv(RequestState& req) {
    if (req.zero_copy) {
        // Rendezvous: the sender already moved the payload straight into
        // req.buf; the envelope is a header. Nothing left to unpack.
        req.status.source = req.env.source;
        req.status.tag = req.env.tag;
        req.status.bytes = req.direct_bytes;
        req.complete = true;
        return req.status;
    }

    // Unpack on the owning thread; only this rank's thread touches req now.
    const auto& flat = req.type.flat();
    const std::size_t capacity = flat.size() * req.count;
    NNCOMM_CHECK_MSG(req.env.payload.size() <= capacity, "message longer than receive buffer");
    if (!req.env.payload.empty()) {
        counters_.rt_bytes_copied += req.env.payload.size();  // receive-side copy
        // Feed the eager_unpack cost line: the copy below is the
        // receiver-side half of the eager protocol's double copy. This
        // rank's thread is the line's single writer.
        const std::size_t total = req.env.payload.size();
        const bool observe =
            total >= kAdaptiveObserveMinBytes && adaptive_protocol_engaged();
        std::chrono::steady_clock::time_point t0;
        if (observe && !world_->synthetic.enabled) t0 = std::chrono::steady_clock::now();
        if (flat.contiguous() && static_cast<std::ptrdiff_t>(flat.size()) == flat.extent()) {
            if (req.env.payload.size() >= kTimedCopyMinBytes) {
                PhaseScope scope(timers_, Phase::Comm);
                std::memcpy(req.buf, req.env.payload.data(), req.env.payload.size());
            } else {
                std::memcpy(req.buf, req.env.payload.data(), req.env.payload.size());
            }
        } else {
            // Receive-side scatter through the compiled plan kernel (every
            // class); cursor walk only behind the fastpath escape hatch.
            PhaseScope scope(timers_, Phase::Pack);
            const std::span<const std::byte> payload(req.env.payload.data(),
                                                     req.env.payload.size());
            const dt::PackPlan& plan = req.type.plan();
            if (engine_config_.enable_plan_fastpath) {
                ++counters_.plan_hits;
                plan.unpack(flat, static_cast<std::byte*>(req.buf), req.count, payload,
                            &counters_);
            } else {
                dt::TypeCursor cur(&flat, req.count);
                const std::size_t n =
                    dt::unpack_bytes(static_cast<std::byte*>(req.buf), cur, payload);
                NNCOMM_CHECK(n == req.env.payload.size());
            }
        }
        if (observe) {
            const auto& syn = world_->synthetic;
            world_->proto->observe_eager_unpack(
                req.env.source, rank_, family_of(req.type), static_cast<double>(total),
                observed_ns(*world_, syn.eager_unpack_base_ns, syn.eager_unpack_per_byte_ns,
                            total, t0));
            ++counters_.rt_proto_adapt_updates;
        }
    }
    req.status.source = req.env.source;
    req.status.tag = req.env.tag;
    req.status.bytes = req.env.payload.size();
    // Recycle through this rank's pool cache for future sends.
    world_->pool.release(std::move(req.env.payload), rank_, counters_);
    req.complete = true;
    return req.status;
}

void Comm::waitall(std::span<Request> reqs) {
    for (Request& r : reqs) {
        if (r.valid()) wait(r);
    }
}

bool Comm::test(Request& request, RecvStatus* status) {
    NNCOMM_CHECK_MSG(request.valid(), "test on null request");
    RequestState& req = *request.state_;
    if (req.complete) {
        if (status) *status = req.status;
        return true;
    }
    progress();

    if (req.kind == RequestState::Kind::Send) {
        if (!req.delivered.load(std::memory_order_acquire)) {
            if (world_->aborted.load(std::memory_order_acquire)) {
                throw AbortedError("runtime aborted while testing a send");
            }
            return false;
        }
        req.complete = true;
        if (status) *status = req.status;
        return true;
    }

    // A matched request always completes, even when the world is aborting —
    // consuming an arrived message cannot mask the root cause (same rule
    // as wait()).
    if (!try_complete_recv(req)) {
        if (world_->aborted.load(std::memory_order_acquire)) {
            throw AbortedError("runtime aborted while testing a receive");
        }
        return false;
    }
    const RecvStatus st = finish_recv(req);
    if (status) *status = st;
    return true;
}

RecvStatus Comm::recv(void* buf, std::size_t count, const dt::Datatype& type, int source,
                      int tag) {
    Request r = irecv(buf, count, type, source, tag);
    return wait(r);
}

RecvStatus Comm::sendrecv(const void* sendbuf, std::size_t sendcount,
                          const dt::Datatype& sendtype, int dest, int sendtag, void* recvbuf,
                          std::size_t recvcount, const dt::Datatype& recvtype, int source,
                          int recvtag) {
    Request r = irecv(recvbuf, recvcount, recvtype, source, recvtag);
    send(sendbuf, sendcount, sendtype, dest, sendtag);
    return wait(r);
}

void Comm::send_i(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                  int tag, Protocol proto) {
    send_ctx(buf, count, type, dest, tag, context_ + detail::kInternalContextOffset, proto);
}

RecvStatus Comm::recv_i(void* buf, std::size_t count, const dt::Datatype& type, int source,
                        int tag) {
    Request r = irecv_i(buf, count, type, source, tag);
    return wait(r);
}

Request Comm::isend_i(const void* buf, std::size_t count, const dt::Datatype& type, int dest,
                      int tag, Protocol proto) {
    return isend_ctx(buf, count, type, dest, tag, context_ + detail::kInternalContextOffset,
                     proto);
}

Request Comm::irecv_i(void* buf, std::size_t count, const dt::Datatype& type, int source,
                      int tag) {
    return irecv_ctx(buf, count, type, source, tag, context_ + detail::kInternalContextOffset);
}

RecvStatus Comm::sendrecv_i(const void* sendbuf, std::size_t sendcount,
                            const dt::Datatype& sendtype, int dest, int sendtag, void* recvbuf,
                            std::size_t recvcount, const dt::Datatype& recvtype, int source,
                            int recvtag, Protocol proto) {
    Request r = irecv_i(recvbuf, recvcount, recvtype, source, recvtag);
    send_i(sendbuf, sendcount, sendtype, dest, sendtag, proto);
    return wait(r);
}

namespace {

/// Scans the receiver-private stashes for a message matching (source, tag,
/// context) without consuming it. The stashes hold exactly the envelopes
/// that matched no posted receive — the unexpected queue probe reports on.
ProbeStatus scan_unexpected(Mailbox& box, int source, int tag, int context) {
    detail::RequestState pattern;
    pattern.source = source;
    pattern.tag = tag;
    pattern.context = context;
    const int lo = source == kAnySource ? 0 : source;
    const int hi = source == kAnySource ? box.nranks - 1 : source;
    for (int src = lo; src <= hi; ++src) {
        for (const Envelope& env : box.lanes[static_cast<std::size_t>(src)].stash) {
            if (detail::matches(pattern, env)) {
                return ProbeStatus{true, env.source, env.tag, env.payload.size()};
            }
        }
    }
    return ProbeStatus{};
}

}  // namespace

ProbeStatus Comm::probe(int source, int tag) {
    Mailbox& box = *world_->boxes[static_cast<std::size_t>(rank_)];
    if (!world_->policy.enabled) {
        int spins = 0;
        for (;;) {
            process_arrivals();
            ProbeStatus st = scan_unexpected(box, source, tag, context_);
            if (st.found) return st;
            if (world_->aborted.load(std::memory_order_acquire)) {
                throw AbortedError("runtime aborted while probing");
            }
            ++spins;
            if (spins <= kSpinChecks) continue;
            if (spins <= kSpinChecks + kSpinYields) {
                std::this_thread::yield();
                continue;
            }
            spins = 0;
            box.sleepers.fetch_add(1, std::memory_order_seq_cst);
            {
                std::unique_lock<std::mutex> lk(box.wait_mu);
                if (box.seq.load(std::memory_order_seq_cst) == box.drained_seq &&
                    !world_->aborted.load(std::memory_order_acquire)) {
                    ++counters_.rt_cv_waits;
                    box.cv.wait_for(lk, kSleepSlice);
                }
            }
            box.sleepers.fetch_sub(1, std::memory_order_release);
        }
    }
    // Perturbed schedule: drive delivery between scans and re-poll on a
    // timeout (probes have no matched flag a notify could be tied to).
    for (;;) {
        const bool delivered_any = progress() > 0;
        process_arrivals();
        ProbeStatus st = scan_unexpected(box, source, tag, context_);
        if (st.found) return st;
        if (world_->aborted.load(std::memory_order_acquire)) {
            throw AbortedError("runtime aborted while probing");
        }
        if (!delivered_any) {
            box.sleepers.fetch_add(1, std::memory_order_seq_cst);
            {
                std::unique_lock<std::mutex> lk(box.wait_mu);
                if (box.seq.load(std::memory_order_seq_cst) == box.drained_seq &&
                    !world_->aborted.load(std::memory_order_acquire)) {
                    ++counters_.rt_cv_waits;
                    box.cv.wait_for(lk, std::chrono::microseconds(100));
                }
            }
            box.sleepers.fetch_sub(1, std::memory_order_release);
        }
    }
}

ProbeStatus Comm::iprobe(int source, int tag) {
    progress();  // an in-flight message "is there" once the engine can deliver it
    process_arrivals();
    Mailbox& box = *world_->boxes[static_cast<std::size_t>(rank_)];
    return scan_unexpected(box, source, tag, context_);
}

ProbeStatus Comm::iprobe_i(int source, int tag) {
    progress();
    process_arrivals();
    Mailbox& box = *world_->boxes[static_cast<std::size_t>(rank_)];
    return scan_unexpected(box, source, tag, context_ + detail::kInternalContextOffset);
}

Comm Comm::dup() {
    // Deterministic tree numbering: all ranks perform the same sequence of
    // dups, so (parent context, per-parent dup ordinal) is globally
    // consistent. Contexts live below kInternalContextOffset.
    ++dup_count_;
    NNCOMM_CHECK_MSG(dup_count_ < 64, "too many duplicates of one communicator");
    const int child = context_ * 64 + dup_count_;
    NNCOMM_CHECK_MSG(child < (1 << 24), "communicator dup tree too deep");
    Comm c(world_, rank_, child);
    c.engine_kind_ = engine_kind_;
    c.engine_config_ = engine_config_;
    c.rendezvous_threshold_ = rendezvous_threshold_;
    c.threshold_pinned_ = threshold_pinned_;
    c.adaptive_protocol_ = adaptive_protocol_;
    c.rendezvous_pipeline_ = rendezvous_pipeline_;
    return c;
}

void Comm::barrier() {
    // Dissemination barrier: ceil(log2 N) rounds of zero-byte exchanges on
    // the internal context. Epoch-tagged so a reordered straggler from one
    // barrier can never satisfy a later one.
    const int epoch = next_collective_epoch();
    const int n = size();
    const int ctx = context_ + detail::kInternalContextOffset;
    const int tag = epoch_tag(kInternalTagBase, epoch);
    for (int k = 1; k < n; k <<= 1) {
        const int to = (rank_ + k) % n;
        const int from = (rank_ - k + n) % n;
        Request r = irecv_ctx(nullptr, 0, dt::Datatype::byte(), from, tag, ctx);
        send_ctx(nullptr, 0, dt::Datatype::byte(), to, tag, ctx);
        wait(r);
    }
}

// ---------------------------------------------------------------------------
// World

World::World(int nranks) : nranks_(nranks), state_(std::make_unique<WorldState>()) {
    NNCOMM_CHECK_MSG(nranks >= 1, "World needs at least one rank");
    state_->nranks = nranks;
    state_->boxes.reserve(static_cast<std::size_t>(nranks));
    state_->destq.reserve(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) {
        state_->boxes.push_back(std::make_unique<Mailbox>());
        state_->boxes.back()->init(nranks);
        state_->destq.push_back(std::make_unique<detail::DestQueue>());
    }
    state_->pool.init(nranks);
    state_->proto = std::make_unique<ProtoTable>(nranks);
    state_->done_send = std::make_shared<RequestState>();
    state_->done_send->kind = RequestState::Kind::Send;
    state_->done_send->delivered.store(true, std::memory_order_release);
    state_->done_send->complete = true;
}

World::~World() = default;

void World::set_schedule(const SchedulePolicy& policy) { state_->policy = policy; }

const SchedulePolicy& World::schedule() const { return state_->policy; }

void World::set_payload_pool_budget(std::size_t bytes) { state_->pool.set_budget(bytes); }

std::size_t World::payload_pool_resident_bytes() const { return state_->pool.resident_bytes(); }

void World::set_synthetic_protocol_costs(const SyntheticProtoCosts& costs) {
    state_->synthetic = costs;
}

std::size_t World::learned_threshold(int src, int dst, PackFamily family,
                                     std::size_t fallback) const {
    return state_->proto->learned_threshold(src, dst, family, fallback);
}

std::uint64_t World::proto_pair_samples(int src, int dst) const {
    return state_->proto->pair_samples(src, dst);
}

void World::run(const std::function<void(Comm&)>& fn) {
    // Reset abort state and clear any residue from a previous run.
    state_->aborted.store(false);
    for (auto& b : state_->boxes) {
        std::lock_guard<std::mutex> plk(b->posted_mu);
        std::lock_guard<std::mutex> olk(b->overflow_mu);
        for (int s = 0; s < b->nranks; ++s) {
            detail::Lane& lane = b->lanes[static_cast<std::size_t>(s)];
            Envelope e;
            while (lane.ring.pop(e)) {
            }
            lane.overflow.clear();
            lane.stash.clear();
            lane.unconsumed.store(0);
            lane.overflow_count.store(0);
        }
        for (int w = 0; w < b->dirty_words; ++w) b->dirty[static_cast<std::size_t>(w)].store(0);
        for (auto& q : b->prq_by_src) q.clear();
        b->prq_wild.clear();
        b->next_post_seq = 0;
        b->drained_seq = b->seq.load();
        b->sleepers.store(0);
    }
    for (int d = 0; d < nranks_; ++d) {
        detail::DestQueue& dq = *state_->destq[static_cast<std::size_t>(d)];
        std::lock_guard<std::mutex> lk(dq.mu);
        dq.q.clear();
        dq.count.store(0);
        dq.claimed.store(false);
        // Each destination draws from its own seeded stream so schedules
        // stay reproducible per (seed, destination) without a global RNG
        // lock serializing enqueues.
        dq.rng.reseed(state_->policy.seed ^
                      (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(d) + 1)));
    }
    state_->inflight_count.store(0);
    faulting_rank_ = -1;

    // Root-cause error slot. A woken waiter's secondary AbortedError can
    // race the originating exception here; the originating error always
    // wins, whichever order the ranks arrive in.
    std::mutex err_mu;
    std::exception_ptr first_error;
    int first_error_rank = -1;
    bool first_error_secondary = false;
    auto record = [&](std::exception_ptr e, int rank, bool secondary) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error || (first_error_secondary && !secondary)) {
            first_error = std::move(e);
            first_error_rank = rank;
            first_error_secondary = secondary;
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
        threads.emplace_back([this, r, &fn, &record] {
            Comm comm(state_.get(), r, /*context=*/0);
            try {
                fn(comm);
            } catch (const AbortedError&) {
                record(std::current_exception(), r, /*secondary=*/true);
            } catch (...) {
                record(std::current_exception(), r, /*secondary=*/false);
                state_->abort_all();
            }
        });
    }
    for (auto& t : threads) t.join();
    if (first_error) {
        faulting_rank_ = first_error_rank;
        std::rethrow_exception(first_error);
    }
}

}  // namespace nncomm::rt
