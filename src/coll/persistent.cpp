#include "coll/persistent.hpp"

#include <memory>
#include <vector>

#include "coll/util.hpp"
#include "runtime/protocol.hpp"
#include "runtime/win.hpp"

namespace nncomm::coll {

namespace {
/// Own tag space so persistent traffic can never match one-shot alltoallw
/// messages in flight on the same communicator. (0x500: the previous 0x300
/// base collided with bcast's tag.)
constexpr int kPersistentTagBase = rt::kInternalTagBase + 0x500;
/// Clear-to-send lane: zero-byte tokens receivers send once their large
/// (rendezvous-bound) receives are posted. Zero-byte messages bypass the
/// payload pool entirely, so the handshake itself allocates nothing. The
/// lane is an offset within the persistent tag space (0x500 + 0x80 keeps
/// the old wire tags bit-for-bit).
constexpr int kCtsOffset = 0x80;
/// One-sided plans exchange window offsets exactly once, at plan time, on
/// this lane (disjoint from the CTS lane; steady state then moves zero
/// control messages).
constexpr int kRmaOffsetExchange = 0x100;
}  // namespace

AlltoallwPlan::AlltoallwPlan(rt::Comm& comm, std::span<const std::size_t> sendcounts,
                             std::span<const std::ptrdiff_t> sdispls,
                             std::span<const dt::Datatype> sendtypes,
                             std::span<const std::size_t> recvcounts,
                             std::span<const std::ptrdiff_t> rdispls,
                             std::span<const dt::Datatype> recvtypes, PlanTransport transport,
                             dt::EngineKind engine)
    : comm_(&comm),
      engine_kind_(engine),
      engine_config_(comm.engine_config()),
      rma_(transport == PlanTransport::Rma) {
    const auto n = static_cast<std::size_t>(comm.size());
    NNCOMM_CHECK_MSG(sendcounts.size() == n && sdispls.size() == n && sendtypes.size() == n &&
                         recvcounts.size() == n && rdispls.size() == n && recvtypes.size() == n,
                     "AlltoallwPlan: all argument arrays must have one entry per rank");
    const int rank = comm.rank();

    struct SendPeer {
        int rank;
        std::size_t count;
        std::ptrdiff_t displ;
        dt::Datatype type;
        std::uint64_t bytes;
        rt::Protocol proto;  ///< volume-derived, frozen at plan time
    };
    struct RecvPeer {
        int rank;
        std::size_t count;
        std::ptrdiff_t displ;
        dt::Datatype type;
        std::uint64_t bytes;
        /// Mirror of the sender's frozen Rendezvous decision (same volume,
        /// same threshold): after posting this receive, the schedule sends
        /// the source a zero-byte clear-to-send so the payload send always
        /// finds the receive posted and the single-copy path never races.
        bool cts;
    };
    std::vector<SendPeer> sends;
    std::vector<RecvPeer> recvs;

    bool has_self = false;
    std::size_t self_i = 0;
    std::uint64_t self_vol = 0;

    const std::size_t threshold = comm.rendezvous_threshold();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t svol =
            static_cast<std::uint64_t>(sendcounts[i]) * sendtypes[i].size();
        const std::uint64_t rvol =
            static_cast<std::uint64_t>(recvcounts[i]) * recvtypes[i].size();
        if (static_cast<int>(i) == rank) {
            NNCOMM_CHECK_MSG(svol == rvol, "AlltoallwPlan: self send/recv volume mismatch");
            if (svol > 0) {
                has_self = true;
                self_i = i;
                self_vol = svol;
            }
            continue;
        }
        if (rvol > 0) {
            // Matching type signatures make rvol here equal svol on the
            // source, so both ends freeze the same protocol decision —
            // provided every rank runs the same rendezvous threshold (the
            // same uniformity every collective already demands of its
            // arguments).
            recvs.push_back({static_cast<int>(i), recvcounts[i], rdispls[i], recvtypes[i],
                             rvol, rt::rendezvous_eligible(rvol, threshold)});
        }
    }

    // The binned send order, frozen at plan time, so cheap peers are not
    // delayed behind expensive noncontiguous packing.
    for (const BinnedPeer& p : binned_send_order(rank, sendcounts, sendtypes)) {
        const auto d = static_cast<std::size_t>(p.rank);
        sends.push_back({p.rank, sendcounts[d], sdispls[d], sendtypes[d], p.bytes,
                         rt::rendezvous_eligible(p.bytes, threshold)
                             ? rt::Protocol::Rendezvous
                             : rt::Protocol::Eager});
    }
    send_peers_ = sends.size();
    recv_peers_ = recvs.size();

    if (rma_) {
        // Window layout: one block per source peer, prefix sums of receive
        // volumes in rank order. Each source learns its offset into this
        // rank's region (and we learn ours into each destination's) in a
        // single setup-time exchange; steady state then fuses pack+put into
        // the peer region with no envelopes, no CTS, and no staging beyond
        // the self slot.
        std::vector<std::uint64_t> my_offsets(n, 0);
        std::uint64_t win_bytes = 0;
        for (const RecvPeer& p : recvs) {
            my_offsets[static_cast<std::size_t>(p.rank)] = win_bytes;
            win_bytes += p.bytes;
        }
        // Uninitialized: a peer's put fills each source's block before the
        // closing fence, and only then is the block read.
        auto region = std::make_unique_for_overwrite<std::byte[]>(
            static_cast<std::size_t>(win_bytes));
        rt::Win win = rt::Win::create(comm, region.get(), static_cast<std::size_t>(win_bytes));

        TagSpace xspace(comm, kPersistentTagBase);
        const int xtag = xspace.tag(kRmaOffsetExchange);
        const dt::Datatype byte = dt::Datatype::byte();
        std::vector<std::uint64_t> target_offsets(n, 0);
        std::vector<rt::Request> xreqs;
        xreqs.reserve(sends.size() + recvs.size());
        for (const SendPeer& p : sends) {
            xreqs.push_back(comm.irecv_i(&target_offsets[static_cast<std::size_t>(p.rank)],
                                         sizeof(std::uint64_t), byte, p.rank, xtag));
        }
        for (const RecvPeer& p : recvs) {
            xreqs.push_back(comm.isend_i(&my_offsets[static_cast<std::size_t>(p.rank)],
                                         sizeof(std::uint64_t), byte, p.rank, xtag,
                                         rt::Protocol::Eager));
        }
        for (rt::Request& rq : xreqs) comm.wait(rq);

        request_ = CollRequest(
            *comm_, build_alltoallw_rma_schedule(rank, static_cast<int>(n), sendcounts,
                                                 sdispls, sendtypes, recvcounts, rdispls,
                                                 recvtypes, target_offsets, my_offsets));
        request_.own_window(std::move(region), std::move(win));
        request_.set_pack_engine(engine_kind_);
        return;
    }

    // Compile the schedule. Emission order is execution order for the
    // dep-free prefix: typed receives post first, then the clear-to-sends
    // fire (proving to each rendezvous-bound source that this rank's
    // receives are posted), then the self copy, then the eager pack+send
    // pairs in binned order. Rendezvous sends occupy round 1: their packs
    // are released by the matching clear-to-send token.
    Schedule s;
    s.tag_base = kPersistentTagBase;
    bool any_rdv = false;

    for (const RecvPeer& p : recvs) {
        ScheduleOp rcv;
        rcv.kind = ScheduleOpKind::Recv;
        rcv.peer = p.rank;
        rcv.a = {BufRef::Space::Recv, p.displ};
        rcv.count = p.count;
        rcv.type = p.type;
        rcv.bytes = p.bytes;
        s.ops.push_back(std::move(rcv));
    }
    for (const RecvPeer& p : recvs) {
        if (!p.cts) continue;
        ScheduleOp cts;
        cts.kind = ScheduleOpKind::Send;
        cts.peer = p.rank;
        cts.tag_offset = kCtsOffset;
        cts.proto = rt::Protocol::Eager;
        s.ops.push_back(std::move(cts));  // zero-byte: a.space == None
    }
    const bool self_staged =
        has_self && detail::copy_needs_staging(sendtypes[self_i], recvtypes[self_i]);
    if (has_self) {
        // Self exchange: copy_typed moves it with one copy when either
        // layout is contiguous; otherwise it is staged through a persistent
        // slot (slot >= 0 routes the Copy through pack_into/unpack_from), so
        // the steady state never allocates a pack buffer.
        ScheduleOp cp;
        cp.kind = ScheduleOpKind::Copy;
        cp.a = {BufRef::Space::Send, sdispls[self_i]};
        cp.count = sendcounts[self_i];
        cp.type = sendtypes[self_i];
        cp.b = {BufRef::Space::Recv, rdispls[self_i]};
        cp.bcount = recvcounts[self_i];
        cp.btype = recvtypes[self_i];
        if (self_staged) cp.slot = static_cast<int>(sends.size());
        cp.bytes = self_vol;
        s.ops.push_back(std::move(cp));
    }
    for (std::size_t k = 0; k < sends.size(); ++k) {
        const SendPeer& p = sends[k];
        const bool rdv = p.proto == rt::Protocol::Rendezvous;
        const int round = rdv ? 1 : 0;
        any_rdv = any_rdv || rdv;

        int cts_idx = -1;
        if (rdv) {
            // Rendezvous packs wait for the receiver's token.
            ScheduleOp cts;
            cts.kind = ScheduleOpKind::Recv;
            cts.peer = p.rank;
            cts.tag_offset = kCtsOffset;
            cts.round = round;
            s.ops.push_back(std::move(cts));  // zero-byte token
            cts_idx = static_cast<int>(s.ops.size()) - 1;
        }

        ScheduleOp pk;
        pk.kind = ScheduleOpKind::Pack;
        pk.round = round;
        pk.a = {BufRef::Space::Send, p.displ};
        pk.count = p.count;
        pk.type = p.type;
        pk.slot = static_cast<int>(k);
        pk.bytes = p.bytes;
        if (cts_idx >= 0) pk.deps = {cts_idx};
        s.ops.push_back(std::move(pk));
        const int pack_idx = static_cast<int>(s.ops.size()) - 1;

        ScheduleOp snd;
        snd.kind = ScheduleOpKind::Send;
        snd.round = round;
        snd.peer = p.rank;
        snd.a = {BufRef::Space::Send, p.displ};  // informational; wire uses the slot
        snd.count = p.count;
        snd.type = p.type;
        snd.slot = static_cast<int>(k);
        snd.bytes = p.bytes;
        snd.proto = p.proto;
        snd.deps = {pack_idx};
        s.ops.push_back(std::move(snd));
    }

    s.rounds = any_rdv ? 2 : 1;
    s.staging.reserve(sends.size() + (self_staged ? 1u : 0u));
    for (const SendPeer& p : sends) s.staging.push_back(static_cast<std::size_t>(p.bytes));
    if (self_staged) s.staging.push_back(static_cast<std::size_t>(self_vol));

    request_ = CollRequest(*comm_, std::move(s));
    request_.set_pack_engine(engine_kind_);
}

CollRequest AlltoallwPlan::begin(const void* sendbuf, void* recvbuf) {
    NNCOMM_CHECK_MSG(!request_.in_flight(),
                     "AlltoallwPlan::begin: the previous execution has not been waited "
                     "(persistent plans are single-flight)");
    // Engine-config changes between executes invalidate the persistent
    // engines (their scratch sizing depends on the pipeline chunk); treat
    // it as a re-plan of the engines only.
    if (!(comm_->engine_config() == engine_config_)) {
        engine_config_ = comm_->engine_config();
        request_.invalidate_engines();
    }
    StatCounters extra;
    ++extra.persistent_executes;
    if (rma_) ++extra.coll_rma_plan_executes;
    if (request_.completions() > 0) ++extra.coll_schedule_cache_hits;
    request_.inject(extra);
    request_.start(sendbuf, recvbuf);
    return request_.share();
}

}  // namespace nncomm::coll
