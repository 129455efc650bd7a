#include "petsckit/scatter.hpp"

#include "runtime/sparse.hpp"

namespace nncomm::pk {

namespace {
constexpr int kScatterTag = 0x5CA7;  // hand-tuned backend's user-level tag

// Owner lookup that remembers the last owner's range. Index lists are runs
// far more often than not, so the binary search in Layout::owner runs only
// when an index leaves the cached [begin, end).
class OwnerCursor {
public:
    explicit OwnerCursor(const Layout& layout) : layout_(&layout) {}
    int operator()(Index g) {
        if (!range_.contains(g)) {
            owner_ = layout_->owner(g);
            range_ = layout_->range(owner_);
        }
        return owner_;
    }

private:
    const Layout* layout_;
    OwnershipRange range_{};
    int owner_ = -1;
};

// Stamps each rank-indexed plan with its rank and keeps the nonempty ones,
// in ascending rank order.
template <typename Plan>
std::vector<Plan> nonempty_peers(std::vector<Plan> by_rank) {
    for (std::size_t r = 0; r < by_rank.size(); ++r) by_rank[r].rank = static_cast<int>(r);
    std::erase_if(by_rank, [](const Plan& p) { return p.offsets.empty(); });
    return by_rank;
}
}  // namespace

dt::Datatype offsets_type(std::span<const Index> offsets) {
    // The offsets are the element displacements as they stand: the type is
    // born flat, and its builder merges each run of consecutive offsets
    // into one block while it reads them.
    return dt::Datatype::indexed_block(1, offsets, dt::Datatype::float64());
}

VecScatter::VecScatter(rt::Comm& comm, const Layout& src_layout, const IndexSet& is_src,
                       const Layout& dst_layout, const IndexSet& is_dst)
    : comm_(&comm) {
    NNCOMM_CHECK_MSG(is_src.size() == is_dst.size(),
                     "VecScatter: index sets must have equal length");
    const int n = comm.size();
    const int rank = comm.rank();
    NNCOMM_CHECK_MSG(src_layout.size() == n && dst_layout.size() == n,
                     "VecScatter: layouts must match the communicator");
    src_local_ = src_layout.range(rank).count();
    dst_local_ = dst_layout.range(rank).count();

    const Index src_begin = src_layout.range(rank).begin;
    const Index dst_begin = dst_layout.range(rank).begin;

    // Every rank walks the full replicated pair list; entries are grouped
    // by peer in k order, so sender and receiver enumerate each pair's
    // elements identically.
    const auto nn = static_cast<std::size_t>(n);
    std::vector<PeerPlan> send_by(nn), recv_by(nn);
    OwnerCursor src_owner(src_layout), dst_owner(dst_layout);
    for (std::size_t k = 0; k < is_src.size(); ++k) {
        const Index gs = is_src[k];
        const Index gd = is_dst[k];
        const int so = src_owner(gs);
        const int dow = dst_owner(gd);
        if (so == rank && dow == rank) {
            self_src_.push_back(gs - src_begin);
            self_dst_.push_back(gd - dst_begin);
        } else if (so == rank) {
            send_by[static_cast<std::size_t>(dow)].offsets.push_back(gs - src_begin);
        } else if (dow == rank) {
            recv_by[static_cast<std::size_t>(so)].offsets.push_back(gd - dst_begin);
        }
    }
    sends_ = nonempty_peers(std::move(send_by));
    recvs_ = nonempty_peers(std::move(recv_by));

    finalize_plans(n, rank);
}

// Shared constructor tail: once sends_/recvs_/self_* are known (however
// they were discovered — replicated walk or NBX), derive the per-peer byte
// table and the prebuilt Alltoallw argument arrays.
void VecScatter::finalize_plans(int n, int rank) {
    send_bytes_.assign(static_cast<std::size_t>(n), 0);
    for (const PeerPlan& p : sends_) {
        send_bytes_[static_cast<std::size_t>(p.rank)] = p.offsets.size() * 8;
    }

    // Prebuild the Alltoallw argument arrays for the datatype backends.
    const auto nn = static_cast<std::size_t>(n);
    w_sendcounts_.assign(nn, 0);
    w_recvcounts_.assign(nn, 0);
    w_sdispls_.assign(nn, 0);
    w_rdispls_.assign(nn, 0);
    w_sendtypes_.assign(nn, dt::Datatype::byte());
    w_recvtypes_.assign(nn, dt::Datatype::byte());
    for (const PeerPlan& p : sends_) {
        w_sendcounts_[static_cast<std::size_t>(p.rank)] = 1;
        w_sendtypes_[static_cast<std::size_t>(p.rank)] = offsets_type(p.offsets);
    }
    for (const PeerPlan& p : recvs_) {
        w_recvcounts_[static_cast<std::size_t>(p.rank)] = 1;
        w_recvtypes_[static_cast<std::size_t>(p.rank)] = offsets_type(p.offsets);
    }
    if (!self_src_.empty()) {
        w_sendcounts_[static_cast<std::size_t>(rank)] = 1;
        w_sendtypes_[static_cast<std::size_t>(rank)] = offsets_type(self_src_);
        w_recvcounts_[static_cast<std::size_t>(rank)] = 1;
        w_recvtypes_[static_cast<std::size_t>(rank)] = offsets_type(self_dst_);
    }
}

VecScatter VecScatter::gather_sparse(rt::Comm& comm, const Layout& src_layout,
                                     std::span<const Index> needed_global,
                                     const Layout& dst_layout) {
    const int n = comm.size();
    const int rank = comm.rank();
    NNCOMM_CHECK_MSG(src_layout.size() == n && dst_layout.size() == n,
                     "gather_sparse: layouts must match the communicator");
    NNCOMM_CHECK_MSG(dst_layout.range(rank).count() ==
                         static_cast<Index>(needed_global.size()),
                     "gather_sparse: dst layout must own one slot per needed index");

    VecScatter vs;
    vs.comm_ = &comm;
    vs.src_local_ = src_layout.range(rank).count();
    vs.dst_local_ = dst_layout.range(rank).count();
    const Index src_begin = src_layout.range(rank).begin;

    // Local pass: split the needed list into owned entries (pure local
    // moves) and per-owner receive plans, both in k order; each owner's
    // request payload is read back off its plan, so the two enumerate
    // pairs identically.
    std::vector<PeerPlan> recv_by(static_cast<std::size_t>(n));
    OwnerCursor owner_of(src_layout);
    for (std::size_t k = 0; k < needed_global.size(); ++k) {
        const Index g = needed_global[k];
        const int owner = owner_of(g);
        if (owner == rank) {
            vs.self_src_.push_back(g - src_begin);
            vs.self_dst_.push_back(static_cast<Index>(k));
        } else {
            recv_by[static_cast<std::size_t>(owner)].offsets.push_back(static_cast<Index>(k));
        }
    }
    vs.recvs_ = nonempty_peers(std::move(recv_by));

    // NBX discovery: each rank tells only its actual source owners what it
    // reads from them; owners learn their reader set from whatever
    // arrives. No dense O(p) count vectors are exchanged — traffic is
    // proportional to the true neighborhood plus the O(log p) consensus.
    std::vector<std::pair<int, std::vector<Index>>> requests;
    requests.reserve(vs.recvs_.size());
    for (const PeerPlan& p : vs.recvs_) {
        std::vector<Index> globals(p.offsets.size());
        for (std::size_t i = 0; i < globals.size(); ++i) {
            globals[i] = needed_global[static_cast<std::size_t>(p.offsets[i])];
        }
        requests.emplace_back(p.rank, std::move(globals));
    }
    auto serves = rt::sparse_exchange_t<Index>(
        comm, std::span<const std::pair<int, std::vector<Index>>>(requests));
    const OwnershipRange owned = src_layout.range(rank);
    for (auto& [reader, globals] : serves) {
        for (Index& g : globals) {
            NNCOMM_CHECK_MSG(owned.contains(g),
                             "gather_sparse: request for an index this rank does not own");
            g -= src_begin;
        }
        // serves is source-sorted, so sends_ is too.
        vs.sends_.push_back(PeerPlan{reader, std::move(globals)});
    }

    vs.finalize_plans(n, rank);
    return vs;
}

std::vector<std::uint64_t> VecScatter::send_blocks() const {
    std::vector<std::uint64_t> blocks(send_bytes_.size(), 0);
    for (const PeerPlan& p : sends_) {
        blocks[static_cast<std::size_t>(p.rank)] =
            w_sendtypes_[static_cast<std::size_t>(p.rank)].block_count();
    }
    return blocks;
}

void VecScatter::execute(const Vec& src, Vec& dst, ScatterBackend backend,
                         InsertMode insert) const {
    ScatterRequest req = begin(src, dst, backend, insert);
    req.end();
}

void VecScatter::execute_reverse(Vec& src, const Vec& dst, ScatterBackend backend,
                                 InsertMode insert) const {
    ScatterRequest req = begin_reverse(src, dst, backend, insert);
    req.end();
}

ScatterRequest VecScatter::begin(const Vec& src, Vec& dst, ScatterBackend backend,
                                 InsertMode insert) const {
    NNCOMM_CHECK_MSG(src.local_size() == src_local_ && dst.local_size() == dst_local_,
                     "VecScatter::begin: vectors do not match the planned layouts");
    NNCOMM_CHECK_MSG(insert == InsertMode::Insert || backend == ScatterBackend::HandTuned,
                     "VecScatter: Add mode requires the hand-tuned backend");
    switch (backend) {
        case ScatterBackend::HandTuned:
            return begin_hand_tuned(src, sends_, self_src_, dst, recvs_, self_dst_, insert,
                                    ht_fwd_send_, ht_fwd_recv_);
        case ScatterBackend::DatatypeBaseline:
            return begin_datatype(src.data(), dst.data(), coll::AlltoallwAlgo::RoundRobin,
                                  dt::EngineKind::SingleContext, ScatterMode::Forward);
        case ScatterBackend::DatatypeOptimized:
            return begin_datatype(src.data(), dst.data(), coll::AlltoallwAlgo::Binned,
                                  dt::EngineKind::DualContext, ScatterMode::Forward);
    }
    return {};
}

ScatterRequest VecScatter::begin_reverse(Vec& src, const Vec& dst, ScatterBackend backend,
                                         InsertMode insert) const {
    NNCOMM_CHECK_MSG(src.local_size() == src_local_ && dst.local_size() == dst_local_,
                     "VecScatter::begin_reverse: vectors do not match the planned layouts");
    NNCOMM_CHECK_MSG(insert == InsertMode::Insert || backend == ScatterBackend::HandTuned,
                     "VecScatter: Add mode requires the hand-tuned backend");
    switch (backend) {
        case ScatterBackend::HandTuned:
            // The plans swap roles wholesale: forward-receivers become
            // senders of their dst entries, forward-senders accumulate
            // into their src entries.
            return begin_hand_tuned(dst, recvs_, self_dst_, src, sends_, self_src_, insert,
                                    ht_rev_send_, ht_rev_recv_);
        case ScatterBackend::DatatypeBaseline:
            // Reverse: the argument arrays swap roles exactly.
            return begin_datatype(dst.data(), src.data(), coll::AlltoallwAlgo::RoundRobin,
                                  dt::EngineKind::SingleContext, ScatterMode::Reverse);
        case ScatterBackend::DatatypeOptimized:
            return begin_datatype(dst.data(), src.data(), coll::AlltoallwAlgo::Binned,
                                  dt::EngineKind::DualContext, ScatterMode::Reverse);
    }
    return {};
}

ScatterRequest VecScatter::begin_hand_tuned(
    const Vec& from, const std::vector<PeerPlan>& from_plans,
    const std::vector<Index>& from_self, Vec& to, const std::vector<PeerPlan>& to_plans,
    const std::vector<Index>& to_self, InsertMode insert,
    std::vector<std::vector<double>>& send_bufs,
    std::vector<std::vector<double>>& recv_bufs) const {
    // PETSc's default path: explicit packing and per-peer point-to-point,
    // no derived datatypes, no collective. The staging buffers persist in
    // the scatter; after the first execute these resizes are no-ops.
    ScatterRequest req;
    req.path_ = ScatterRequest::Path::HandTuned;
    req.comm_ = comm_;
    req.to_plans_ = &to_plans;
    req.recv_bufs_ = &recv_bufs;
    req.to_ = &to;
    req.insert_ = insert;

    recv_bufs.resize(to_plans.size());
    req.recv_reqs_.reserve(to_plans.size());
    for (std::size_t i = 0; i < to_plans.size(); ++i) {
        recv_bufs[i].resize(to_plans[i].offsets.size());
        req.recv_reqs_.push_back(
            comm_->irecv(recv_bufs[i].data(), recv_bufs[i].size() * 8, dt::Datatype::byte(),
                         to_plans[i].rank, kScatterTag));
    }

    send_bufs.resize(from_plans.size());
    for (std::size_t i = 0; i < from_plans.size(); ++i) {
        const PeerPlan& p = from_plans[i];
        send_bufs[i].resize(p.offsets.size());
        const double* s = from.data();
        for (std::size_t k = 0; k < p.offsets.size(); ++k) {
            send_bufs[i][k] = s[p.offsets[k]];
        }
        comm_->isend(send_bufs[i].data(), send_bufs[i].size() * 8, dt::Datatype::byte(), p.rank,
                     kScatterTag);
    }

    // Local moves overlap the transfers.
    for (std::size_t k = 0; k < from_self.size(); ++k) {
        if (insert == InsertMode::Insert) {
            to.data()[to_self[k]] = from.data()[from_self[k]];
        } else {
            to.data()[to_self[k]] += from.data()[from_self[k]];
        }
    }
    return req;
}

ScatterRequest VecScatter::begin_datatype(const void* sendbuf, void* recvbuf,
                                          coll::AlltoallwAlgo algo, dt::EngineKind engine,
                                          ScatterMode mode) const {
    ScatterRequest req;
    req.comm_ = comm_;
    req.saved_engine_ = comm_->engine_kind();
    req.restore_engine_ = true;
    comm_->set_engine(engine);
    coll::CollConfig cfg;
    cfg.alltoallw_algo = algo;

    const bool forward = mode == ScatterMode::Forward;
    const auto& scounts = forward ? w_sendcounts_ : w_recvcounts_;
    const auto& sdispls = forward ? w_sdispls_ : w_rdispls_;
    const auto& stypes = forward ? w_sendtypes_ : w_recvtypes_;
    const auto& rcounts = forward ? w_recvcounts_ : w_sendcounts_;
    const auto& rdispls = forward ? w_rdispls_ : w_sdispls_;
    const auto& rtypes = forward ? w_recvtypes_ : w_sendtypes_;

    // The optimized backend (binned + dual-context) runs through a
    // persistent AlltoallwPlan: the first execute in each direction
    // compiles its cached Schedule, later executes replay it
    // allocation-free. The baseline backend stays one-shot — it reproduces
    // the paper's measured baseline, where this rebuild cost is part of the
    // story.
    req.path_ = ScatterRequest::Path::Datatype;
    if (persistent_ && algo == coll::AlltoallwAlgo::Binned) {
        auto& plan = forward ? fwd_plan_ : rev_plan_;
        if (!plan) {
            plan = std::make_unique<coll::AlltoallwPlan>(*comm_, scounts, sdispls, stypes,
                                                         rcounts, rdispls, rtypes,
                                                         coll::PlanTransport::Rma, engine);
        }
        req.coll_ = plan->begin(sendbuf, recvbuf);
    } else {
        req.coll_ = coll::ialltoallw(*comm_, sendbuf, scounts, sdispls, stypes, recvbuf,
                                     rcounts, rdispls, rtypes, cfg);
    }
    return req;
}

bool ScatterRequest::test() {
    NNCOMM_CHECK_MSG(active(), "ScatterRequest::test on an inactive request");
    switch (path_) {
        case Path::HandTuned: {
            bool all = true;
            for (rt::Request& r : recv_reqs_) {
                if (!comm_->test(r)) all = false;
            }
            return all;
        }
        case Path::Datatype: return coll_.test();
        case Path::None: break;
    }
    return true;
}

void ScatterRequest::end() {
    NNCOMM_CHECK_MSG(active(), "ScatterRequest::end on an inactive request");
    switch (path_) {
        case Path::HandTuned: {
            comm_->waitall(recv_reqs_);
            auto& recv_bufs = *recv_bufs_;
            for (std::size_t i = 0; i < to_plans_->size(); ++i) {
                const auto& p = (*to_plans_)[i];
                double* d = to_->data();
                for (std::size_t k = 0; k < p.offsets.size(); ++k) {
                    if (insert_ == InsertMode::Insert) {
                        d[p.offsets[k]] = recv_bufs[i][k];
                    } else {
                        d[p.offsets[k]] += recv_bufs[i][k];
                    }
                }
            }
            recv_reqs_.clear();
            break;
        }
        case Path::Datatype: coll_.wait(); break;
        case Path::None: break;
    }
    if (restore_engine_) comm_->set_engine(saved_engine_);
    path_ = Path::None;
}

}  // namespace nncomm::pk
