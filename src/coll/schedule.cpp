// Schedule builders and the CollRequest executor.
//
// The builders are the former straight-line collective implementations
// (allgatherv.cpp / alltoallw.cpp / basic.cpp) re-expressed as op-graph
// emission: same peers, same tags, same protocols, same local-copy and
// apply orders — they just *describe* the communication instead of
// performing it. src/netsim lowers the identical Schedule objects into
// LogGP simulator programs.
#include "coll/schedule.hpp"

#include <algorithm>
#include <cstring>

#include "coll/util.hpp"
#include "datatype/pack.hpp"
#include "runtime/win.hpp"

namespace nncomm::coll {

namespace {

constexpr int kTagAllgatherv = rt::kInternalTagBase + 0x100;
constexpr int kTagAlltoallw = rt::kInternalTagBase + 0x200;
constexpr int kTagBcast = rt::kInternalTagBase + 0x300;
constexpr int kTagReduce = rt::kInternalTagBase + 1;

// Volume hint for one phase: the algorithm knows exactly how many bytes a
// step moves, so bulk steps ride the zero-copy rendezvous path (their
// receives are preposted by the executor) and small latency-bound steps
// stay eager without consulting the size heuristic per message.
rt::Protocol phase_protocol(std::size_t bytes, std::size_t threshold) {
    return rt::rendezvous_eligible(bytes, threshold) ? rt::Protocol::Rendezvous
                                                     : rt::Protocol::Eager;
}

std::ptrdiff_t block_offset(std::span<const std::size_t> displs, const dt::Datatype& elem,
                            int b) {
    return static_cast<std::ptrdiff_t>(displs[static_cast<std::size_t>(b)]) * elem.extent();
}

}  // namespace

// ---------------------------------------------------------------------------
// allgatherv builders

AllgathervAlgo resolve_allgatherv_algo(std::span<const std::uint64_t> volumes,
                                       const CollConfig& config) {
    if (config.allgatherv_algo != AllgathervAlgo::Auto) return config.allgatherv_algo;
    // The paper's selection: run the Eq. 1 outlier analysis over the
    // communication-volume set (available at every rank by definition of
    // the operation) and avoid the ring when the set is nonuniform.
    const int n = static_cast<int>(volumes.size());
    const AllgathervPolicy policy{config.outlier, config.long_msg_total};
    const bool pow2 = (n & (n - 1)) == 0;
    if (allgatherv_use_ring(volumes, policy)) return AllgathervAlgo::Ring;
    return pow2 ? AllgathervAlgo::RecursiveDoubling : AllgathervAlgo::Dissemination;
}

Schedule build_allgatherv_schedule(int rank, int nranks, AllgathervAlgo algo,
                                   std::size_t sendcount, const dt::Datatype& sendtype,
                                   std::span<const std::size_t> recvcounts,
                                   std::span<const std::size_t> displs,
                                   const dt::Datatype& recvtype,
                                   std::size_t rendezvous_threshold) {
    Schedule s;
    s.tag_base = kTagAllgatherv;
    const int n = nranks;

    // Place the local contribution first; every algorithm forwards out of
    // recvbuf.
    ScheduleOp copy;
    copy.kind = ScheduleOpKind::Copy;
    copy.a = {BufRef::Space::Send, 0};
    copy.count = sendcount;
    copy.type = sendtype;
    copy.b = {BufRef::Space::Recv, block_offset(displs, recvtype, rank)};
    copy.bcount = recvcounts[static_cast<std::size_t>(rank)];
    copy.btype = recvtype;
    const int copy_idx = 0;
    s.ops.push_back(std::move(copy));
    if (n == 1) return s;

    auto push_recv = [&](int src, int tag_offset, int round, std::ptrdiff_t off,
                         std::size_t count, const dt::Datatype& type) {
        ScheduleOp op;
        op.kind = ScheduleOpKind::Recv;
        op.round = round;
        op.peer = src;
        op.tag_offset = tag_offset;
        op.a = {BufRef::Space::Recv, off};
        op.count = count;
        op.type = type;
        op.bytes = static_cast<std::uint64_t>(count) * type.size();
        s.ops.push_back(std::move(op));
        return static_cast<int>(s.ops.size()) - 1;
    };
    auto push_send = [&](int dst, int tag_offset, int round, std::ptrdiff_t off,
                         std::size_t count, const dt::Datatype& type, std::vector<int> deps) {
        ScheduleOp op;
        op.kind = ScheduleOpKind::Send;
        op.round = round;
        op.peer = dst;
        op.tag_offset = tag_offset;
        op.a = {BufRef::Space::Recv, off};
        op.count = count;
        op.type = type;
        op.bytes = static_cast<std::uint64_t>(count) * type.size();
        op.proto = phase_protocol(static_cast<std::size_t>(op.bytes), rendezvous_threshold);
        op.deps = std::move(deps);
        s.ops.push_back(std::move(op));
        return static_cast<int>(s.ops.size()) - 1;
    };

    switch (algo) {
        case AllgathervAlgo::Ring: {
            // N-1 steps; at step s each rank forwards the block it received
            // in the previous step (one outlier-sized block travels the
            // whole ring sequentially — Figure 8's behaviour). Send_s
            // therefore depends on Recv_{s-1}; receives are independent
            // (disjoint blocks, per-step tags) and prepost.
            const int right = (rank + 1) % n;
            const int left = (rank + n - 1) % n;
            int prev_recv = -1;
            for (int st = 0; st < n - 1; ++st) {
                const int send_block = (rank - st + n) % n;
                const int recv_block = (rank - st - 1 + n) % n;
                push_send(right, st, st, block_offset(displs, recvtype, send_block),
                          recvcounts[static_cast<std::size_t>(send_block)], recvtype,
                          {st == 0 ? copy_idx : prev_recv});
                prev_recv = push_recv(left, st, st, block_offset(displs, recvtype, recv_block),
                                      recvcounts[static_cast<std::size_t>(recv_block)],
                                      recvtype);
            }
            s.rounds = n - 1;
            break;
        }
        case AllgathervAlgo::RecursiveDoubling: {
            // log2 N phases, each rank exchanging its aligned group of
            // blocks with its partner's group. Phase p sends every block
            // gathered so far, so Send_p depends on the local copy and all
            // earlier receives.
            NNCOMM_CHECK_MSG((n & (n - 1)) == 0,
                             "recursive doubling needs power-of-two ranks");
            std::vector<int> gathered{copy_idx};
            int phase = 0;
            for (int mask = 1; mask < n; mask <<= 1, ++phase) {
                const int partner = rank ^ mask;
                const int my_first = rank & ~(mask - 1);
                const int peer_first = partner & ~(mask - 1);
                auto send_type = detail::block_range_type(recvcounts, displs, recvtype,
                                                          my_first, mask);
                auto recv_type = detail::block_range_type(recvcounts, displs, recvtype,
                                                          peer_first, mask);
                push_send(partner, 0x40 + phase, phase, 0, 1, send_type, gathered);
                gathered.push_back(push_recv(partner, 0x40 + phase, phase, 0, 1, recv_type));
            }
            s.rounds = phase;
            break;
        }
        case AllgathervAlgo::Dissemination: {
            // ceil(log2 N) phases; in phase p rank i sends its newest
            // min(2^p, N - 2^p) blocks to (i + 2^p) mod N and receives the
            // matching range from (i - 2^p) mod N.
            std::vector<int> gathered{copy_idx};
            int phase = 0;
            for (int step = 1; step < n; step <<= 1, ++phase) {
                const int cnt = std::min(step, n - step);
                const int to = (rank + step) % n;
                const int from = (rank - step + n) % n;
                auto send_type = detail::block_range_type(recvcounts, displs, recvtype,
                                                          rank - cnt + 1, cnt);
                auto recv_type = detail::block_range_type(recvcounts, displs, recvtype,
                                                          rank - step - cnt + 1, cnt);
                push_send(to, 0x80 + phase, phase, 0, 1, send_type, gathered);
                gathered.push_back(push_recv(from, 0x80 + phase, phase, 0, 1, recv_type));
            }
            s.rounds = phase;
            break;
        }
        case AllgathervAlgo::Auto:
            NNCOMM_CHECK_MSG(false, "build_allgatherv_schedule: algo must be resolved");
    }
    return s;
}

// ---------------------------------------------------------------------------
// alltoallw builders

std::vector<BinnedPeer> binned_send_order(int rank, std::span<const std::size_t> sendcounts,
                                          std::span<const dt::Datatype> sendtypes) {
    std::vector<BinnedPeer> peers;
    for (std::size_t d = 0; d < sendcounts.size(); ++d) {
        if (static_cast<int>(d) == rank) continue;
        const std::uint64_t bytes = static_cast<std::uint64_t>(sendcounts[d]) * sendtypes[d].size();
        if (bytes > 0) peers.push_back({static_cast<int>(d), bytes});
    }
    std::sort(peers.begin(), peers.end(), [](const BinnedPeer& a, const BinnedPeer& b) {
        return a.bytes < b.bytes || (a.bytes == b.bytes && a.rank < b.rank);
    });
    return peers;
}

Schedule build_alltoallw_schedule(int rank, int nranks, AlltoallwAlgo algo,
                                  std::span<const std::size_t> sendcounts,
                                  std::span<const std::ptrdiff_t> sdispls,
                                  std::span<const dt::Datatype> sendtypes,
                                  std::span<const std::size_t> recvcounts,
                                  std::span<const std::ptrdiff_t> rdispls,
                                  std::span<const dt::Datatype> recvtypes,
                                  std::size_t small_msg_threshold) {
    Schedule s;
    s.tag_base = kTagAlltoallw;
    const int n = nranks;
    const auto r = static_cast<std::size_t>(rank);

    auto self_copy = [&] {
        ScheduleOp op;
        op.kind = ScheduleOpKind::Copy;
        op.a = {BufRef::Space::Send, sdispls[r]};
        op.count = sendcounts[r];
        op.type = sendtypes[r];
        op.b = {BufRef::Space::Recv, rdispls[r]};
        op.bcount = recvcounts[r];
        op.btype = recvtypes[r];
        s.ops.push_back(std::move(op));
    };

    if (algo == AlltoallwAlgo::RoundRobin) {
        // Baseline: blocking pairwise exchange with EVERY rank in
        // round-robin order, including zero-byte messages. Each step
        // synchronizes the pair (step i's ops wait on step i-1's receive),
        // so zero-volume peers still cost a round trip, and a large
        // noncontiguous message to an early peer delays every later peer.
        self_copy();
        int prev_recv = -1;
        for (int i = 1; i < n; ++i) {
            const int dst = (rank + i) % n;
            const int src = (rank - i + n) % n;
            const auto d = static_cast<std::size_t>(dst);
            const auto sr = static_cast<std::size_t>(src);
            ScheduleOp snd;
            snd.kind = ScheduleOpKind::Send;
            snd.round = i - 1;
            snd.peer = dst;
            snd.tag_offset = i;
            snd.a = {BufRef::Space::Send, sdispls[d]};
            snd.count = sendcounts[d];
            snd.type = sendtypes[d];
            snd.bytes = static_cast<std::uint64_t>(sendcounts[d]) * sendtypes[d].size();
            if (prev_recv >= 0) snd.deps = {prev_recv};
            s.ops.push_back(std::move(snd));

            ScheduleOp rcv;
            rcv.kind = ScheduleOpKind::Recv;
            rcv.round = i - 1;
            rcv.peer = src;
            rcv.tag_offset = i;
            rcv.a = {BufRef::Space::Recv, rdispls[sr]};
            rcv.count = recvcounts[sr];
            rcv.type = recvtypes[sr];
            rcv.bytes = static_cast<std::uint64_t>(recvcounts[sr]) * recvtypes[sr].size();
            if (prev_recv >= 0) rcv.deps = {prev_recv};
            s.ops.push_back(std::move(rcv));
            prev_recv = static_cast<int>(s.ops.size()) - 1;
        }
        s.rounds = n > 1 ? n - 1 : 1;
        return s;
    }

    NNCOMM_CHECK_MSG(algo == AlltoallwAlgo::Binned,
                     "build_alltoallw_schedule: algo must be resolved");
    // The paper's binned design: peers are divided into zero / small /
    // large volume bins. Zero-volume peers are exempted entirely (no
    // synchronizing empty message); small-volume sends are processed before
    // large ones so cheap peers are not delayed behind expensive
    // noncontiguous packing. One tag per invocation (the epoch lane keeps
    // back-to-back calls from aliasing); receives prepost, the large bin is
    // hinted onto the zero-copy rendezvous path.
    constexpr int kBinnedTag = 0x80;
    for (int src = 0; src < n; ++src) {
        if (src == rank) continue;
        const auto sr = static_cast<std::size_t>(src);
        const std::uint64_t vol =
            static_cast<std::uint64_t>(recvcounts[sr]) * recvtypes[sr].size();
        if (vol == 0) continue;
        ScheduleOp rcv;
        rcv.kind = ScheduleOpKind::Recv;
        rcv.peer = src;
        rcv.tag_offset = kBinnedTag;
        rcv.a = {BufRef::Space::Recv, rdispls[sr]};
        rcv.count = recvcounts[sr];
        rcv.type = recvtypes[sr];
        rcv.bytes = vol;
        s.ops.push_back(std::move(rcv));
    }
    if (static_cast<std::uint64_t>(sendcounts[r]) * sendtypes[r].size() > 0) self_copy();

    for (const BinnedPeer& p : binned_send_order(rank, sendcounts, sendtypes)) {
        const auto d = static_cast<std::size_t>(p.rank);
        ScheduleOp snd;
        snd.kind = ScheduleOpKind::Send;
        snd.peer = p.rank;
        snd.tag_offset = kBinnedTag;
        snd.proto = p.bytes < small_msg_threshold ? rt::Protocol::Eager
                                                  : rt::Protocol::Rendezvous;
        snd.a = {BufRef::Space::Send, sdispls[d]};
        snd.count = sendcounts[d];
        snd.type = sendtypes[d];
        snd.bytes = p.bytes;
        s.ops.push_back(std::move(snd));
    }
    return s;
}

Schedule build_alltoallw_rma_schedule(int rank, int nranks,
                                      std::span<const std::size_t> sendcounts,
                                      std::span<const std::ptrdiff_t> sdispls,
                                      std::span<const dt::Datatype> sendtypes,
                                      std::span<const std::size_t> recvcounts,
                                      std::span<const std::ptrdiff_t> rdispls,
                                      std::span<const dt::Datatype> recvtypes,
                                      std::span<const std::uint64_t> target_offsets,
                                      std::span<const std::uint64_t> my_offsets) {
    Schedule s;
    s.tag_base = kTagAlltoallw;  // no wire tags; kept for lane bookkeeping
    const int n = nranks;
    const auto r = static_cast<std::size_t>(rank);

    // Round 0: open the access+exposure epoch. The open fence of execute
    // k+1 doubles as the consumption barrier for execute k — a rank only
    // re-enters it after its own round-3 Unpacks retired, so no peer can
    // overwrite window bytes that are still unread.
    ScheduleOp open;
    open.kind = ScheduleOpKind::Fence;
    open.round = 0;
    s.ops.push_back(std::move(open));
    const int open_idx = 0;

    // Round 1: the self block never touches the window (a single typed copy,
    // or staged through the one persistent slot when neither layout is
    // contiguous, like the two-sided plan), and the remote blocks
    // keep the binned small-before-large ordering of the two-sided
    // schedule — each Put is a fused pack straight into the target region.
    const std::uint64_t self_vol =
        static_cast<std::uint64_t>(sendcounts[r]) * sendtypes[r].size();
    if (self_vol > 0) {
        ScheduleOp cp;
        cp.kind = ScheduleOpKind::Copy;
        cp.round = 1;
        cp.a = {BufRef::Space::Send, sdispls[r]};
        cp.count = sendcounts[r];
        cp.type = sendtypes[r];
        cp.b = {BufRef::Space::Recv, rdispls[r]};
        cp.bcount = recvcounts[r];
        cp.btype = recvtypes[r];
        cp.bytes = self_vol;
        if (detail::copy_needs_staging(sendtypes[r], recvtypes[r])) {
            cp.slot = 0;
            s.staging.push_back(static_cast<std::size_t>(self_vol));
        }
        s.ops.push_back(std::move(cp));
    }

    std::vector<int> put_idx;
    for (const BinnedPeer& p : binned_send_order(rank, sendcounts, sendtypes)) {
        const auto d = static_cast<std::size_t>(p.rank);
        ScheduleOp put;
        put.kind = ScheduleOpKind::Put;
        put.round = 1;
        put.peer = p.rank;
        put.a = {BufRef::Space::Send, sdispls[d]};
        put.count = sendcounts[d];
        put.type = sendtypes[d];
        put.b = {BufRef::Space::Win,
                 static_cast<std::ptrdiff_t>(target_offsets[d])};
        put.bytes = p.bytes;
        put.deps = {open_idx};
        s.ops.push_back(std::move(put));
        put_idx.push_back(static_cast<int>(s.ops.size()) - 1);
    }

    // Round 2: close the epoch. After this fence retires, every peer's
    // puts into this rank's region are complete and visible.
    ScheduleOp close;
    close.kind = ScheduleOpKind::Fence;
    close.round = 2;
    close.deps = put_idx;
    close.deps.push_back(open_idx);
    s.ops.push_back(std::move(close));
    const int close_idx = static_cast<int>(s.ops.size()) - 1;

    // Round 3: scatter each source's packed bytes out of this rank's own
    // window region into the typed receive layout.
    for (int src = 0; src < n; ++src) {
        if (src == rank) continue;
        const auto sr = static_cast<std::size_t>(src);
        const std::uint64_t vol =
            static_cast<std::uint64_t>(recvcounts[sr]) * recvtypes[sr].size();
        if (vol == 0) continue;
        ScheduleOp up;
        up.kind = ScheduleOpKind::Unpack;
        up.round = 3;
        up.peer = src;
        up.a = {BufRef::Space::Recv, rdispls[sr]};
        up.count = recvcounts[sr];
        up.type = recvtypes[sr];
        up.b = {BufRef::Space::Win, static_cast<std::ptrdiff_t>(my_offsets[sr])};
        up.bytes = vol;
        up.deps = {close_idx};
        s.ops.push_back(std::move(up));
    }
    s.rounds = 4;
    return s;
}

// ---------------------------------------------------------------------------
// rooted builders

Schedule build_bcast_schedule(int rank, int nranks, int root, std::size_t count,
                              const dt::Datatype& type) {
    Schedule s;
    s.tag_base = kTagBcast;
    const int n = nranks;
    if (n == 1) return s;
    const int vrank = (rank - root + n) % n;
    const std::uint64_t bytes = static_cast<std::uint64_t>(count) * type.size();

    // Receive once from the parent (the rank that differs in the lowest set
    // bit), then forward down the binomial tree.
    int recv_idx = -1;
    int mask = 1;
    while (mask < n) {
        if ((vrank & mask) != 0) {
            const int src = ((vrank - mask) + root) % n;
            ScheduleOp rcv;
            rcv.kind = ScheduleOpKind::Recv;
            rcv.peer = src;
            rcv.a = {BufRef::Space::Recv, 0};
            rcv.count = count;
            rcv.type = type;
            rcv.bytes = bytes;
            s.ops.push_back(std::move(rcv));
            recv_idx = static_cast<int>(s.ops.size()) - 1;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (vrank + mask < n) {
            const int dst = ((vrank + mask) + root) % n;
            ScheduleOp snd;
            snd.kind = ScheduleOpKind::Send;
            snd.peer = dst;
            snd.a = {BufRef::Space::Recv, 0};
            snd.count = count;
            snd.type = type;
            snd.bytes = bytes;
            if (recv_idx >= 0) snd.deps = {recv_idx};
            s.ops.push_back(std::move(snd));
        }
        mask >>= 1;
    }
    return s;
}

Schedule build_reduce_schedule(int rank, int nranks, int root, std::size_t nbytes,
                               ReduceOp op, ReduceFn fn, std::size_t elems) {
    Schedule s;
    s.tag_base = kTagReduce;
    const int n = nranks;
    // Rotate ranks so the tree is rooted at `root`. Receives prepost into
    // per-phase staging slots (distinct sources, one tag); the Reduce ops
    // chain on each other so the elementwise applications run in
    // ascending-mask order.
    const int vrank = (rank - root + n) % n;
    int prev_reduce = -1;
    int mask = 1;
    while (mask < n) {
        if ((vrank & mask) != 0) {
            const int dst = ((vrank & ~mask) + root) % n;
            ScheduleOp snd;
            snd.kind = ScheduleOpKind::Send;
            snd.peer = dst;
            snd.a = {BufRef::Space::Recv, 0};
            snd.count = nbytes;
            snd.type = dt::Datatype::byte();
            snd.bytes = nbytes;
            if (prev_reduce >= 0) snd.deps = {prev_reduce};
            s.ops.push_back(std::move(snd));
            return s;  // this rank's subtree is folded in; done
        }
        const int vsrc = vrank | mask;
        if (vsrc < n) {
            const int src = (vsrc + root) % n;
            const int slot = static_cast<int>(s.staging.size());
            s.staging.push_back(nbytes);
            ScheduleOp rcv;
            rcv.kind = ScheduleOpKind::Recv;
            rcv.peer = src;
            rcv.slot = slot;
            rcv.count = nbytes;
            rcv.type = dt::Datatype::byte();
            rcv.bytes = nbytes;
            s.ops.push_back(std::move(rcv));
            const int recv_idx = static_cast<int>(s.ops.size()) - 1;

            ScheduleOp red;
            red.kind = ScheduleOpKind::Reduce;
            red.a = {BufRef::Space::Recv, 0};
            red.slot = slot;
            red.count = elems;
            red.rop = op;
            red.rfn = fn;
            red.deps = prev_reduce >= 0 ? std::vector<int>{recv_idx, prev_reduce}
                                        : std::vector<int>{recv_idx};
            s.ops.push_back(std::move(red));
            prev_reduce = static_cast<int>(s.ops.size()) - 1;
        }
        mask <<= 1;
    }
    return s;
}

// ---------------------------------------------------------------------------
// CollRequest

/// The shared execution block behind every CollRequest handle.
struct CollRequest::State {
    enum : std::uint8_t { kPending = 0, kPosted = 1, kDone = 2 };

    State(rt::Comm& c, Schedule s) : comm(&c), sched(std::move(s)) {}

    bool deps_done(const ScheduleOp& op) const;
    bool pass();  ///< one progress pass; true when complete
    void post_recv(std::size_t i);
    void post_send(std::size_t i);
    void run_local(std::size_t i);
    /// Packs op i's typed source into op.bytes at `dst` (Pack and Put ops).
    void pack_into(std::size_t i, std::byte* dst);
    void mark_done(std::size_t i);
    void finalize();
    std::byte* resolve(const BufRef& ref) const;

    rt::Comm* comm;
    Schedule sched;
    TagSpace tags;
    const void* sendbuf = nullptr;
    void* recvbuf = nullptr;

    std::vector<std::uint8_t> op_state;
    std::vector<rt::Request> reqs;
    std::vector<std::vector<std::byte>> staging;           ///< persistent
    std::vector<std::unique_ptr<dt::PackEngine>> engines;  ///< persistent
    std::vector<int> round_left;
    std::size_t remaining = 0;
    bool started = false;
    bool done = false;
    bool waited = false;  ///< some handle's wait() returned since start()
    bool moved = false;   ///< last pass made progress

    dt::EngineKind engine_kind = dt::EngineKind::DualContext;
    bool engine_kind_set = false;
    std::byte token{};  ///< zero-byte send/recv landing pad

    /// One-sided plans only: this rank's exposed region and its window.
    std::unique_ptr<std::byte[]> win_region;
    rt::Win win;

    StatCounters step;
    StatCounters pending_setup;
    PhaseTimers step_timers;
    StatCounters total;  ///< every completed execution's step
    std::size_t completions = 0;
};

CollRequest::CollRequest(rt::Comm& comm, Schedule schedule)
    : st_(std::make_shared<State>(comm, std::move(schedule))) {
    for (const ScheduleOp& op : st_->sched.ops) {
        NNCOMM_CHECK_MSG(op.tag_offset < rt::kEpochTagStride,
                         "schedule tag offset outside the epoch lane");
        for ([[maybe_unused]] int d : op.deps) {
            NNCOMM_CHECK_MSG(d >= 0, "schedule dependency must be an earlier op");
        }
    }

    ++st_->pending_setup.coll_schedules_built;
}

bool CollRequest::active() const { return st_ && st_->started && !st_->done; }
bool CollRequest::done() const { return st_ && st_->done; }
const Schedule& CollRequest::schedule() const { return st_->sched; }
bool CollRequest::in_flight() const { return st_->started && !st_->waited; }
void CollRequest::set_pack_engine(dt::EngineKind kind) {
    st_->engine_kind = kind;
    st_->engine_kind_set = true;
}
void CollRequest::invalidate_engines() { st_->engines.clear(); }
void CollRequest::own_window(std::unique_ptr<std::byte[]> region, rt::Win win) {
    st_->win_region = std::move(region);
    st_->win = std::move(win);
}
void CollRequest::inject(const StatCounters& extra) { st_->pending_setup += extra; }
const StatCounters& CollRequest::total() const { return st_->total; }
std::size_t CollRequest::completions() const { return st_->completions; }

std::byte* CollRequest::State::resolve(const BufRef& ref) const {
    switch (ref.space) {
        case BufRef::Space::Send:
            return const_cast<std::byte*>(static_cast<const std::byte*>(sendbuf)) + ref.offset;
        case BufRef::Space::Recv:
            return static_cast<std::byte*>(recvbuf) + ref.offset;
        case BufRef::Space::Win:  // resolved through win.translate, not here
        case BufRef::Space::None:
            break;
    }
    return nullptr;
}

void CollRequest::start(const void* sendbuf, void* recvbuf) {
    NNCOMM_CHECK_MSG(valid(), "start on an empty CollRequest");
    NNCOMM_CHECK_MSG(!active(), "start while a previous execution is in flight");
    State& st = *st_;
    st.started = true;
    st.done = false;
    st.waited = false;
    st.sendbuf = sendbuf;
    st.recvbuf = recvbuf;

    st.step = st.pending_setup;
    st.pending_setup = StatCounters{};
    st.step_timers = PhaseTimers{};

    // One fresh tag epoch per execution: sends are fire-and-forget
    // nonblocking, so a straggler from execution k can still be in flight
    // when execution k+1 posts its receives.
    st.tags = TagSpace(*st.comm, st.sched.tag_base);

    if (!st.engine_kind_set) st.engine_kind = st.comm->engine_kind();

    const std::size_t nops = st.sched.ops.size();
    st.op_state.assign(nops, State::kPending);
    st.reqs.clear();
    st.reqs.resize(nops);
    st.engines.resize(nops);
    if (st.staging.size() < st.sched.staging.size()) st.staging.resize(st.sched.staging.size());
    for (std::size_t i = 0; i < st.sched.staging.size(); ++i) {
        if (st.staging[i].size() < st.sched.staging[i]) {
            st.staging[i].resize(st.sched.staging[i]);
            ++st.step.scratch_allocs;
        }
    }
    st.round_left.assign(static_cast<std::size_t>(st.sched.rounds), 0);
    for (const ScheduleOp& op : st.sched.ops) {
        ++st.round_left[static_cast<std::size_t>(op.round)];
    }
    st.remaining = nops;
    if (st.remaining == 0) {  // e.g. bcast/reduce on a single rank
        st.finalize();
        return;
    }

    // Fire round-zero work immediately, exactly like the blocking entry
    // points did: receives post first, then local copies/packs, then the
    // eligible sends. Split-phase callers (VecScatter::begin, DMDA
    // global_to_local_begin) rely on the self-copy having run by the time
    // start() returns.
    st.pass();
}

bool CollRequest::State::deps_done(const ScheduleOp& op) const {
    for (int d : op.deps) {
        if (op_state[static_cast<std::size_t>(d)] != kDone) return false;
    }
    return true;
}

void CollRequest::State::mark_done(std::size_t i) {
    if (op_state[i] == kDone) return;
    op_state[i] = kDone;
    --remaining;
    auto& left = round_left[static_cast<std::size_t>(sched.ops[i].round)];
    if (--left == 0) ++step.coll_rounds_executed;
    if (remaining == 0) finalize();
}

void CollRequest::State::finalize() {
    done = true;
    comm->merge_stats(step, step_timers);
    total += step;
    ++completions;
}

void CollRequest::State::post_recv(std::size_t i) {
    const ScheduleOp& op = sched.ops[i];
    const bool is_token = op.slot < 0 && op.a.space == BufRef::Space::None;
    void* dst = op.slot >= 0 ? static_cast<void*>(staging[static_cast<std::size_t>(op.slot)].data())
                             : (is_token ? &token : resolve(op.a));
    const dt::Datatype& type = (op.slot >= 0 || is_token) ? dt::Datatype::byte() : op.type;
    reqs[i] = comm->irecv_i(dst, op.count, type, op.peer, tags.tag(op.tag_offset));
    op_state[i] = kPosted;
}

void CollRequest::State::post_send(std::size_t i) {
    const ScheduleOp& op = sched.ops[i];
    const int tag = tags.tag(op.tag_offset);
    if (op.slot >= 0) {
        // Staged send: the Pack dependency filled the persistent staging
        // slot; the wire sees contiguous bytes, so the runtime's send path
        // is a single copy (or the zero-copy rendezvous move).
        reqs[i] = comm->isend_i(staging[static_cast<std::size_t>(op.slot)].data(),
                                static_cast<std::size_t>(op.bytes), dt::Datatype::byte(),
                                op.peer, tag, op.proto);
    } else if (op.a.space == BufRef::Space::None) {
        reqs[i] = comm->isend_i(&token, 0, dt::Datatype::byte(), op.peer, tag, op.proto);
    } else {
        reqs[i] = comm->isend_i(resolve(op.a), op.count, op.type, op.peer, tag, op.proto);
    }
    op_state[i] = kPosted;
}

void CollRequest::State::pack_into(std::size_t i, std::byte* dst) {
    const ScheduleOp& op = sched.ops[i];
    const std::byte* src = resolve(op.a);
    const auto nbytes = static_cast<std::size_t>(op.bytes);
    const dt::PackPlan& plan = op.type.plan();
    if (plan.specialized()) {
        // Contiguous / constant-stride layouts: the compiled kernel writes
        // the destination directly — no engine, no scratch.
        PhaseScope scope(step_timers, Phase::Pack);
        plan.pack(op.type.flat(), src, op.count, std::span<std::byte>(dst, nbytes), &step);
        ++step.plan_hits;
        step.bytes_packed += op.bytes;
        return;
    }
    // Irregular layout: a persistent engine, constructed on the first
    // execution and reset (not rebuilt) afterwards.
    auto& eng = engines[i];
    if (!eng) {
        eng = dt::make_engine(engine_kind, src, op.type, op.count, comm->engine_config());
    } else {
        eng->reset(src);
    }
    std::size_t off = 0;
    dt::ChunkView chunk;
    while (eng->next_chunk(chunk)) {
        if (chunk.dense) {
            PhaseScope scope(step_timers, Phase::Pack);
            for (const auto& [ptr, len] : chunk.iov) {
                std::memcpy(dst + off, ptr, len);
                off += len;
            }
        } else {
            std::memcpy(dst + off, chunk.packed.data(), chunk.packed.size());
            off += chunk.packed.size();
        }
    }
    NNCOMM_CHECK(off == nbytes);
    step += eng->counters();
    step_timers += eng->timers();
    eng->reset_stats();
}

void CollRequest::State::run_local(std::size_t i) {
    const ScheduleOp& op = sched.ops[i];
    switch (op.kind) {
        case ScheduleOpKind::Copy: {
            std::byte* dst = resolve(op.b);
            const std::byte* src = resolve(op.a);
            if (op.slot >= 0) {
                // Self exchange staged through the persistent buffer
                // (persistent plans): pack the send layout, unpack into the
                // receive layout — no per-call scratch.
                PhaseScope scope(step_timers, Phase::Pack);
                auto& buf = staging[static_cast<std::size_t>(op.slot)];
                dt::pack_into(src, op.type, op.count, std::span<std::byte>(buf), &step);
                dt::unpack_from(dst, op.btype, op.bcount, std::span<const std::byte>(buf),
                                &step);
            } else {
                detail::copy_typed(src, op.count, op.type, dst, op.bcount, op.btype);
            }
            break;
        }
        case ScheduleOpKind::Pack:
            pack_into(i, staging[static_cast<std::size_t>(op.slot)].data());
            break;
        case ScheduleOpKind::Unpack: {
            PhaseScope scope(step_timers, Phase::Pack);
            if (op.b.space == BufRef::Space::Win) {
                // One-sided plans: the source bytes live in this rank's own
                // window region, where the peer's fused pack+Put left them.
                NNCOMM_CHECK(win.valid());
                const auto* src = static_cast<const std::byte*>(
                    win.translate(comm->rank(), static_cast<std::size_t>(op.b.offset),
                                  static_cast<std::size_t>(op.bytes)));
                dt::unpack_from(resolve(op.a), op.type, op.count,
                                std::span<const std::byte>(
                                    src, static_cast<std::size_t>(op.bytes)),
                                &step);
                break;
            }
            auto& buf = staging[static_cast<std::size_t>(op.slot)];
            dt::unpack_from(resolve(op.a), op.type, op.count,
                            std::span<const std::byte>(buf), &step);
            break;
        }
        case ScheduleOpKind::Put: {
            // Fused pack+put: the pack writes straight into the target
            // rank's window region — no staging slot, no envelope, no CTS.
            NNCOMM_CHECK(win.valid());
            const auto nbytes = static_cast<std::size_t>(op.bytes);
            pack_into(i, static_cast<std::byte*>(win.translate(
                             op.peer, static_cast<std::size_t>(op.b.offset), nbytes)));
            win.record_put(nbytes);
            break;
        }
        case ScheduleOpKind::Reduce: {
            NNCOMM_CHECK(op.rfn != nullptr && op.slot >= 0);
            op.rfn(op.rop, resolve(op.a), staging[static_cast<std::size_t>(op.slot)].data(),
                   op.count);
            break;
        }
        case ScheduleOpKind::Send:
        case ScheduleOpKind::Recv:
        case ScheduleOpKind::Fence:
            NNCOMM_CHECK(false);
    }
}

bool CollRequest::State::pass() {
    if (done) return true;
    bool progressed = false;
    const std::size_t nops = sched.ops.size();

    // 1. Post every eligible receive first: the zero-copy rendezvous path
    //    and the persistent plans' clear-to-send handshake both rely on
    //    receives being posted before any send of the same pass fires.
    for (std::size_t i = 0; i < nops; ++i) {
        if (op_state[i] != kPending || sched.ops[i].kind != ScheduleOpKind::Recv) continue;
        if (!deps_done(sched.ops[i])) continue;
        post_recv(i);
        progressed = true;
    }

    // 2. Ordered sweep: run eligible local ops and fire eligible sends in
    //    emission order. Dependencies always point backwards, so a pack
    //    retiring here immediately releases its send later in the same
    //    sweep — preserving the binned small-before-large pack/send
    //    interleaving.
    for (std::size_t i = 0; i < nops; ++i) {
        if (op_state[i] != kPending) continue;
        const ScheduleOp& op = sched.ops[i];
        if (op.kind == ScheduleOpKind::Recv) continue;
        if (!deps_done(op)) continue;
        if (op.kind == ScheduleOpKind::Send) {
            post_send(i);
        } else if (op.kind == ScheduleOpKind::Fence) {
            // Announce arrival (nonblocking) and let step 3 poll the
            // epoch's completion alongside the posted point-to-point ops.
            NNCOMM_CHECK(win.valid());
            win.fence_begin();
            op_state[i] = kPosted;
        } else {
            run_local(i);
            mark_done(i);
        }
        progressed = true;
    }
    if (done) return true;

    // 3. Test posted operations (drives the delivery engine). A posted
    //    Fence completes through the window's epoch counters, not a
    //    Request.
    for (std::size_t i = 0; i < nops; ++i) {
        if (op_state[i] != kPosted) continue;
        const bool fired = sched.ops[i].kind == ScheduleOpKind::Fence ? win.fence_test()
                                                                      : comm->test(reqs[i]);
        if (fired) {
            mark_done(i);
            progressed = true;
            if (done) return true;
        }
    }
    moved = progressed;
    return done;
}

bool CollRequest::test() {
    NNCOMM_CHECK_MSG(valid() && st_->started, "test on an unstarted CollRequest");
    if (st_->done) return true;
    ++st_->step.coll_overlap_progress_calls;
    return st_->pass();
}

void CollRequest::wait() {
    NNCOMM_CHECK_MSG(valid() && st_->started, "wait on an unstarted CollRequest");
    State& st = *st_;
    while (!st.pass()) {
        if (st.moved) continue;
        NNCOMM_CHECK_MSG(
            std::find(st.op_state.begin(), st.op_state.end(), State::kPosted) !=
                st.op_state.end(),
            "schedule stuck: no runnable and no posted operations");
        // Nothing runnable moved: park until any posted operation fires.
        // Blocking on one particular op can deadlock: while this rank waits
        // for a peer's payload, a clear-to-send arriving on another op would
        // release the send that same peer is itself parked waiting for.
        st.comm->wait_until([&st] { return st.pass() || st.moved; });
    }
    st.waited = true;
}

// ---------------------------------------------------------------------------
// icoll entry points

CollRequest iallgatherv(rt::Comm& comm, const void* sendbuf, std::size_t sendcount,
                        const dt::Datatype& sendtype, void* recvbuf,
                        std::span<const std::size_t> recvcounts,
                        std::span<const std::size_t> displs, const dt::Datatype& recvtype,
                        const CollConfig& config) {
    const int n = comm.size();
    const int rank = comm.rank();
    NNCOMM_CHECK_MSG(recvcounts.size() == static_cast<std::size_t>(n) &&
                         displs.size() == static_cast<std::size_t>(n),
                     "allgatherv: recvcounts/displs must have one entry per rank");
    NNCOMM_CHECK_MSG(sendcount * sendtype.size() ==
                         recvcounts[static_cast<std::size_t>(rank)] * recvtype.size(),
                     "allgatherv: send size differs from this rank's recv block");

    AllgathervAlgo algo = config.allgatherv_algo;
    if (algo == AllgathervAlgo::Auto) {
        std::vector<std::uint64_t> volumes(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            volumes[static_cast<std::size_t>(i)] =
                static_cast<std::uint64_t>(recvcounts[static_cast<std::size_t>(i)]) *
                recvtype.size();
        }
        algo = resolve_allgatherv_algo(volumes, config);
    }

    CollRequest req(comm,
                    build_allgatherv_schedule(rank, n, algo, sendcount, sendtype, recvcounts,
                                              displs, recvtype, comm.rendezvous_threshold()));
    req.start(sendbuf, recvbuf);
    return req;
}

CollRequest ialltoallw(rt::Comm& comm, const void* sendbuf,
                       std::span<const std::size_t> sendcounts,
                       std::span<const std::ptrdiff_t> sdispls,
                       std::span<const dt::Datatype> sendtypes, void* recvbuf,
                       std::span<const std::size_t> recvcounts,
                       std::span<const std::ptrdiff_t> rdispls,
                       std::span<const dt::Datatype> recvtypes, const CollConfig& config) {
    const auto n = static_cast<std::size_t>(comm.size());
    NNCOMM_CHECK_MSG(sendcounts.size() == n && sdispls.size() == n && sendtypes.size() == n &&
                         recvcounts.size() == n && rdispls.size() == n && recvtypes.size() == n,
                     "alltoallw: all argument arrays must have one entry per rank");
    const AlltoallwAlgo algo = (config.alltoallw_algo == AlltoallwAlgo::Auto)
                                   ? AlltoallwAlgo::Binned
                                   : config.alltoallw_algo;
    CollRequest req(comm, build_alltoallw_schedule(comm.rank(), comm.size(), algo, sendcounts,
                                                   sdispls, sendtypes, recvcounts, rdispls,
                                                   recvtypes, config.small_msg_threshold));
    req.start(sendbuf, recvbuf);
    return req;
}

CollRequest ibcast(rt::Comm& comm, void* buf, std::size_t count, const dt::Datatype& type,
                   int root) {
    NNCOMM_CHECK_MSG(root >= 0 && root < comm.size(), "bcast: invalid root");
    CollRequest req(comm, build_bcast_schedule(comm.rank(), comm.size(), root, count, type));
    req.start(nullptr, buf);
    return req;
}

}  // namespace nncomm::coll
