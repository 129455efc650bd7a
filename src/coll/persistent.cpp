#include "coll/persistent.hpp"

#include <algorithm>
#include <vector>

#include "runtime/protocol.hpp"

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
/// Tune-cache marker distinguishing an RMA-available pattern from the same
/// pattern with RMA gated off ("RMA" in ASCII).
constexpr std::uint64_t kRmaSigSalt = 0x524d41;
}  // namespace

AlltoallwPlan::AlltoallwPlan(rt::Comm& comm, std::span<const std::size_t> sendcounts,
                             std::span<const std::ptrdiff_t> sdispls,
                             std::span<const dt::Datatype> sendtypes,
                             std::span<const std::size_t> recvcounts,
                             std::span<const std::ptrdiff_t> rdispls,
                             std::span<const dt::Datatype> recvtypes, const CollConfig& config,
                             dt::EngineKind engine)
    : comm_(&comm), engine_kind_(engine), engine_config_(comm.engine_config()) {
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
        /// Under adaptive protocol selection the sender's learned threshold
        /// is private to its pair state, so the mirror is unavailable —
        /// every nonzero receive emits a clear-to-send instead, and eager
        /// senders consume the token without depending on it.
        bool cts;
    };
    std::vector<SendPeer> sends;
    std::vector<RecvPeer> recvs;

    bool has_self = false;
    std::size_t self_i = 0;
    std::uint64_t self_vol = 0;

    // Adaptive plans freeze their per-peer protocol choices in the
    // process-wide tune cache, keyed by the pattern signature: same
    // communicator shape, same volumes, same layouts => same frozen
    // choices for the lifetime of the process, no matter how the online
    // estimates drift between plan constructions.
    const bool adaptive = comm.adaptive_protocol_engaged();
    std::uint64_t sig = rt::proto_sig_mix(0, static_cast<std::uint64_t>(comm.context_id()));
    sig = rt::proto_sig_mix(sig, static_cast<std::uint64_t>(rank));
    sig = rt::proto_sig_mix(sig, n);
    sig = rt::proto_sig_mix(sig, comm.rendezvous_threshold());
    sig = rt::proto_sig_mix(sig, config.small_msg_threshold);

    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t svol =
            static_cast<std::uint64_t>(sendcounts[i]) * sendtypes[i].size();
        const std::uint64_t rvol =
            static_cast<std::uint64_t>(recvcounts[i]) * recvtypes[i].size();
        if (adaptive) {
            sig = rt::proto_sig_mix(sig, svol);
            sig = rt::proto_sig_mix(sig, rvol);
            if (svol > 0) sig = rt::proto_sig_mix(sig, sendtypes[i].plan().signature());
            if (rvol > 0) sig = rt::proto_sig_mix(sig, recvtypes[i].plan().signature());
        }
        if (static_cast<int>(i) == rank) {
            NNCOMM_CHECK_MSG(svol == rvol, "AlltoallwPlan: self send/recv volume mismatch");
            if (svol > 0) {
                has_self = true;
                self_i = i;
                self_vol = svol;
            }
            continue;
        }
        if (svol > 0) {
            // Boundary contract shared with try_rendezvous / phase_protocol
            // / netsim: rendezvous iff nonempty AND svol >= threshold. The
            // svol > 0 guard above supplies the nonempty half; exactly-at-
            // threshold volumes go rendezvous on every layer. Adaptive
            // plans overwrite the proto after the binned sort, from the
            // tune cache (the sort keys — bytes, rank — never depend on
            // it).
            sends.push_back({static_cast<int>(i), sendcounts[i], sdispls[i], sendtypes[i],
                             svol,
                             svol >= comm.rendezvous_threshold() ? rt::Protocol::Rendezvous
                                                                 : rt::Protocol::Eager});
        }
        if (rvol > 0) {
            // Matching type signatures make rvol here equal svol on the
            // source, so both ends freeze the same protocol decision —
            // provided every rank runs the same rendezvous threshold (the
            // same uniformity every collective already demands of its
            // arguments).
            recvs.push_back({static_cast<int>(i), recvcounts[i], rdispls[i], recvtypes[i],
                             rvol, adaptive || rvol >= comm.rendezvous_threshold()});
        }
    }

    // The binned send order, frozen at plan time: zero-volume peers never
    // made it into sends; the rest go smallest volume first so cheap peers
    // are not delayed behind expensive noncontiguous packing, with the
    // small/large boundary ordered exactly as the one-shot binned
    // algorithm orders it.
    const std::uint64_t small = config.small_msg_threshold;
    std::sort(sends.begin(), sends.end(), [small](const SendPeer& a, const SendPeer& b) {
        const bool as = a.bytes < small, bs = b.bytes < small;
        if (as != bs) return as;
        return a.bytes < b.bytes || (a.bytes == b.bytes && a.rank < b.rank);
    });
    send_peers_ = sends.size();
    recv_peers_ = recvs.size();

    // One-sided lowering decision. It MUST be uniform across ranks — the
    // closing fence is collective, and a rank with zero local traffic
    // cannot see its peers' volumes — so it is a pure function of the
    // config and the env gate, never of the traffic matrix.
    // Protocol::Eager / Rendezvous in the config force the two-sided graph.
    bool use_rma = rt::rma_selection_enabled() &&
                   (config.persistent_protocol == rt::Protocol::Auto ||
                    config.persistent_protocol == rt::Protocol::Rma);

    // Adaptive protocol resolution, after the sort so frozen entries map
    // positionally onto the binned send order. First plan with this
    // signature consults the learned per-pair thresholds and freezes the
    // outcome (first-wins); every later plan — and every re-execution —
    // adopts the frozen entry bit-for-bit, so protocol choices never change
    // under an executing pattern. An RMA-lowered pattern freezes the value
    // 2 for every peer (the salt keeps its signature disjoint from the same
    // pattern with RMA gated off), and the frozen entry governs reruns.
    if (adaptive) {
        sig = rt::proto_sig_mix(sig, use_rma ? kRmaSigSalt : 0u);
        auto& cache = rt::ProtoTuneCache::instance();
        auto frozen = cache.lookup(sig);
        if (!frozen) {
            rt::ProtoTuneCache::Entry entry;
            entry.send_rdzv.reserve(sends.size());
            entry.thresholds.reserve(sends.size());
            for (const SendPeer& p : sends) {
                const std::size_t thr = comm.effective_rendezvous_threshold(p.rank, p.type);
                entry.thresholds.push_back(thr);
                entry.send_rdzv.push_back(use_rma ? 2 : (p.bytes >= thr ? 1 : 0));
            }
            frozen = cache.freeze(sig, std::move(entry));
        }
        NNCOMM_CHECK_MSG(frozen->send_rdzv.size() == sends.size(),
                         "AlltoallwPlan: tune-cache signature collision");
        bool frozen_rma = !sends.empty();
        for (std::size_t k = 0; k < sends.size(); ++k) {
            const std::uint8_t v = frozen->send_rdzv[k];
            frozen_rma = frozen_rma && v == 2;
            sends[k].proto = v == 2   ? rt::Protocol::Rma
                             : v != 0 ? rt::Protocol::Rendezvous
                                      : rt::Protocol::Eager;
        }
        if (!sends.empty()) use_rma = frozen_rma;
    }
    rma_ = use_rma;

    if (use_rma) {
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
        win_buf_.resize(static_cast<std::size_t>(win_bytes));
        win_ = rt::Win::create(comm, win_buf_.data(), win_buf_.size());

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
                                                 recvtypes, target_offsets, my_offsets,
                                                 config.small_msg_threshold));
        request_.set_window(&win_);
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
    if (has_self) {
        // Self exchange staged through a persistent slot (slot >= 0 routes
        // the Copy through pack_into/unpack_from instead of copy_typed).
        ScheduleOp cp;
        cp.kind = ScheduleOpKind::Copy;
        cp.a = {BufRef::Space::Send, sdispls[self_i]};
        cp.count = sendcounts[self_i];
        cp.type = sendtypes[self_i];
        cp.b = {BufRef::Space::Recv, rdispls[self_i]};
        cp.bcount = recvcounts[self_i];
        cp.btype = recvtypes[self_i];
        cp.slot = static_cast<int>(sends.size());
        cp.bytes = self_vol;
        s.ops.push_back(std::move(cp));
    }
    for (std::size_t k = 0; k < sends.size(); ++k) {
        const SendPeer& p = sends[k];
        const bool rdv = p.proto == rt::Protocol::Rendezvous;
        const int round = rdv ? 1 : 0;
        any_rdv = any_rdv || rdv;

        int cts_idx = -1;
        if (rdv || adaptive) {
            // Rendezvous packs wait for the token; under adaptive
            // selection the receiver sends one for *every* nonzero peer
            // (it cannot see this rank's learned threshold), so eager
            // sends post a matching receive purely to consume it — no
            // dependency, no orphaned token aliasing a later execution.
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
        if (rdv && cts_idx >= 0) pk.deps = {cts_idx};
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
    s.staging.reserve(sends.size() + (has_self ? 1u : 0u));
    for (const SendPeer& p : sends) s.staging.push_back(static_cast<std::size_t>(p.bytes));
    if (has_self) s.staging.push_back(static_cast<std::size_t>(self_vol));

    request_ = CollRequest(*comm_, std::move(s));
    request_.set_pack_engine(engine_kind_);
}

AlltoallwPlan::~AlltoallwPlan() = default;

void AlltoallwPlan::begin(const void* sendbuf, void* recvbuf) {
    NNCOMM_CHECK_MSG(!request_.active(),
                     "AlltoallwPlan::begin while a previous execution is in flight");
    // Engine-config changes between executes invalidate the persistent
    // engines (their scratch sizing depends on the pipeline chunk); treat
    // it as a re-plan of the engines only.
    if (!(comm_->engine_config() == engine_config_)) {
        engine_config_ = comm_->engine_config();
        request_.invalidate_engines();
    }
    request_.reset();
    StatCounters extra;
    ++extra.persistent_executes;
    if (rma_) ++extra.coll_rma_plan_executes;
    if (executes_ > 0) ++extra.coll_schedule_cache_hits;
    request_.inject(extra);
    request_.start(sendbuf, recvbuf);
}

void AlltoallwPlan::end() {
    request_.wait();
    counters_ += request_.last_step();
    ++executes_;
}

void AlltoallwPlan::execute(const void* sendbuf, void* recvbuf) {
    begin(sendbuf, recvbuf);
    end();
}

}  // namespace nncomm::coll
