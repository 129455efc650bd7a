#include "petsckit/dmda.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "datatype/pack.hpp"

namespace nncomm::pk {

std::array<int, 3> DMDA::factor_grid(int nprocs, int dim, GridSize size) {
    NNCOMM_CHECK_MSG(nprocs >= 1 && dim >= 1 && dim <= 3, "factor_grid: bad arguments");
    // Enumerate all factorizations px * py * pz == nprocs (pz = 1 unless
    // dim == 3, py = 1 unless dim >= 2), require the axis extents to
    // accommodate the split, and pick the one minimizing the per-rank
    // communication surface.
    double best_score = std::numeric_limits<double>::infinity();
    std::array<int, 3> best{nprocs, 1, 1};
    bool found = false;
    const double mx = static_cast<double>(size.m);
    const double my = static_cast<double>(size.n);
    const double mz = static_cast<double>(size.p);
    for (int px = 1; px <= nprocs; ++px) {
        if (nprocs % px != 0) continue;
        const int rest = nprocs / px;
        const int py_max = (dim >= 2) ? rest : 1;
        for (int py = 1; py <= py_max; ++py) {
            if (rest % py != 0) continue;
            const int pz = rest / py;
            if (dim < 3 && pz != 1) continue;
            if (px > size.m || py > size.n || pz > size.p) continue;
            // Surface per rank of the average local box (lower is better);
            // mild tie-break toward balanced aspect ratios.
            const double lx = mx / px, ly = my / py, lz = mz / pz;
            double score = 0.0;
            if (px > 1) score += ly * lz;
            if (py > 1) score += lx * lz;
            if (pz > 1) score += lx * ly;
            score += 1e-6 * (lx + ly + lz);
            if (score < best_score) {
                best_score = score;
                best = {px, py, pz};
                found = true;
            }
        }
    }
    NNCOMM_CHECK_MSG(found, "factor_grid: no valid process grid (too many ranks for the grid)");
    return best;
}

std::vector<GridBox> DMDA::decompose(int nprocs, int dim, GridSize size) {
    const auto grid = factor_grid(nprocs, dim, size);
    const int px = grid[0], py = grid[1], pz = grid[2];
    std::vector<GridBox> boxes(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
        const int rcx = r % px;
        const int rcy = (r / px) % py;
        const int rcz = r / (px * py);
        const auto rx = split_ownership(size.m, rcx, px);
        const auto ry = split_ownership(size.n, rcy, py);
        const auto rz = split_ownership(size.p, rcz, pz);
        GridBox& b = boxes[static_cast<std::size_t>(r)];
        b.xs = rx.begin;
        b.xm = rx.count();
        b.ys = ry.begin;
        b.ym = ry.count();
        b.zs = rz.begin;
        b.zm = rz.count();
    }
    return boxes;
}

std::vector<DMDA::TrafficEntry> DMDA::ghost_traffic(int nprocs, int dim, GridSize size,
                                                    int dof, int stencil_width,
                                                    Stencil stencil) {
    const auto grid = factor_grid(nprocs, dim, size);
    const int px = grid[0], py = grid[1], pz = grid[2];
    const auto boxes = decompose(nprocs, dim, size);
    const Index sw = stencil_width;

    std::vector<TrafficEntry> traffic;
    if (sw == 0) return traffic;
    const int dy_range = (dim >= 2) ? 1 : 0;
    const int dz_range = (dim >= 3) ? 1 : 0;
    for (int r = 0; r < nprocs; ++r) {
        const int rcx = r % px;
        const int rcy = (r / px) % py;
        const int rcz = r / (px * py);
        const GridBox& o = boxes[static_cast<std::size_t>(r)];
        for (int dz = -dz_range; dz <= dz_range; ++dz) {
            for (int dy = -dy_range; dy <= dy_range; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    if (dx == 0 && dy == 0 && dz == 0) continue;
                    const int nonzero = (dx != 0) + (dy != 0) + (dz != 0);
                    if (stencil == Stencil::Star && nonzero > 1) continue;
                    const int ncx = rcx + dx, ncy = rcy + dy, ncz = rcz + dz;
                    if (ncx < 0 || ncx >= px || ncy < 0 || ncy >= py || ncz < 0 || ncz >= pz) {
                        continue;
                    }
                    const Index wx = (dx == 0) ? o.xm : sw;
                    const Index wy = (dy == 0) ? o.ym : sw;
                    const Index wz = (dz == 0) ? o.zm : sw;
                    TrafficEntry e;
                    e.src = r;
                    e.dst = ncx + px * (ncy + py * ncz);
                    e.bytes = static_cast<std::uint64_t>(wx) * static_cast<std::uint64_t>(wy) *
                              static_cast<std::uint64_t>(wz) * static_cast<std::uint64_t>(dof) *
                              8;
                    // x-contiguous storage: one run per (y, z) line unless
                    // the slab spans full x rows of the owned box.
                    e.blocks = static_cast<std::uint64_t>(wy) * static_cast<std::uint64_t>(wz);
                    traffic.push_back(e);
                }
            }
        }
    }
    return traffic;
}

DMDA::DMDA(rt::Comm& comm, int dim, GridSize size, int dof, int stencil_width, Stencil stencil)
    : comm_(&comm), dim_(dim), size_(size), dof_(dof), sw_(stencil_width), stencil_(stencil) {
    NNCOMM_CHECK_MSG(dim >= 1 && dim <= 3, "DMDA: dim must be 1, 2 or 3");
    NNCOMM_CHECK_MSG(dof >= 1, "DMDA: dof must be >= 1");
    NNCOMM_CHECK_MSG(sw_ >= 0, "DMDA: negative stencil width");
    NNCOMM_CHECK_MSG(size.m >= 1 && size.n >= 1 && size.p >= 1, "DMDA: empty grid");
    NNCOMM_CHECK_MSG(dim >= 2 || size.n == 1, "DMDA: 1-D grid must have n == 1");
    NNCOMM_CHECK_MSG(dim >= 3 || size.p == 1, "DMDA: sub-3-D grid must have p == 1");

    const auto grid = factor_grid(comm.size(), dim, size);
    px_ = grid[0];
    py_ = grid[1];
    pz_ = grid[2];
    const int rank = comm.rank();
    cx_ = rank % px_;
    cy_ = (rank / px_) % py_;
    cz_ = rank / (px_ * py_);

    owned_ = owned_box_of(rank);
    ghosted_ = ghosted_box_of(rank);

    // Every rank must be at least one stencil width wide along any axis on
    // which it has a neighbor, or a single neighbor exchange cannot fill
    // the ghost region.
    NNCOMM_CHECK_MSG(px_ == 1 || owned_.xm >= sw_, "DMDA: local x extent below stencil width");
    NNCOMM_CHECK_MSG(py_ == 1 || owned_.ym >= sw_, "DMDA: local y extent below stencil width");
    NNCOMM_CHECK_MSG(pz_ == 1 || owned_.zm >= sw_, "DMDA: local z extent below stencil width");

    // Global vector layout: every rank's owned volume, computable locally.
    std::vector<Index> counts(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
        counts[static_cast<std::size_t>(r)] =
            owned_box_of(r).volume() * static_cast<Index>(dof_);
    }
    layout_ = std::make_shared<const Layout>(Layout::from_counts(counts));

    build_exchange();
}

// Ghost box: the owned box extended by the stencil width, clamped to the
// domain (non-periodic boundaries). Pure math for any rank.
GridBox DMDA::ghosted_box_of(int rank) const {
    const GridBox o = (rank == comm_->rank()) ? owned_ : owned_box_of(rank);
    GridBox g;
    g.xs = std::max<Index>(0, o.xs - sw_);
    g.xm = std::min<Index>(size_.m, o.xs + o.xm + sw_) - g.xs;
    g.ys = std::max<Index>(0, o.ys - (dim_ >= 2 ? sw_ : 0));
    g.ym = std::min<Index>(size_.n, o.ys + o.ym + (dim_ >= 2 ? sw_ : 0)) - g.ys;
    g.zs = std::max<Index>(0, o.zs - (dim_ >= 3 ? sw_ : 0));
    g.zm = std::min<Index>(size_.p, o.zs + o.zm + (dim_ >= 3 ? sw_ : 0)) - g.zs;
    return g;
}

GridBox DMDA::owned_box_of(int rank) const {
    const int rcx = rank % px_;
    const int rcy = (rank / px_) % py_;
    const int rcz = rank / (px_ * py_);
    const auto rx = split_ownership(size_.m, rcx, px_);
    const auto ry = split_ownership(size_.n, rcy, py_);
    const auto rz = split_ownership(size_.p, rcz, pz_);
    GridBox b;
    b.xs = rx.begin;
    b.xm = rx.count();
    b.ys = ry.begin;
    b.ym = ry.count();
    b.zs = rz.begin;
    b.zm = rz.count();
    return b;
}

Index DMDA::global_index(Index i, Index j, Index k, int c) const {
    NNCOMM_CHECK_MSG(i >= 0 && i < size_.m && j >= 0 && j < size_.n && k >= 0 && k < size_.p &&
                         c >= 0 && c < dof_,
                     "global_index: point outside the grid");
    const int rcx = owner_of(i, size_.m, px_);
    const int rcy = owner_of(j, size_.n, py_);
    const int rcz = owner_of(k, size_.p, pz_);
    const int rank = rcx + px_ * (rcy + py_ * rcz);
    const GridBox b = owned_box_of(rank);
    const Index within =
        (((k - b.zs) * b.ym + (j - b.ys)) * b.xm + (i - b.xs)) * dof_ + c;
    return layout_->range(rank).begin + within;
}

Index DMDA::local_index(Index i, Index j, Index k, int c) const {
    NNCOMM_CHECK_MSG(ghosted_.contains(i, j, k) && c >= 0 && c < dof_,
                     "local_index: point outside the ghosted box");
    return (((k - ghosted_.zs) * ghosted_.ym + (j - ghosted_.ys)) * ghosted_.xm +
            (i - ghosted_.xs)) *
               dof_ +
           c;
}

void DMDA::build_exchange() {
    const int n = comm_->size();
    const auto nn = static_cast<std::size_t>(n);
    g2l_scounts_.assign(nn, 0);
    g2l_rcounts_.assign(nn, 0);
    g2l_sdispls_.assign(nn, 0);
    g2l_rdispls_.assign(nn, 0);
    g2l_stypes_.assign(nn, dt::Datatype::byte());
    g2l_rtypes_.assign(nn, dt::Datatype::byte());

    const auto elem = dt::Datatype::contiguous(static_cast<std::size_t>(dof_),
                                               dt::Datatype::float64());

    // Subarray helper over a box: dims ordered (z, y, x) with the dof
    // handled by the element type.
    auto box_subarray = [&](const GridBox& box, Index x0, Index wx, Index y0, Index wy,
                            Index z0, Index wz) {
        const std::array<std::size_t, 3> sizes{static_cast<std::size_t>(box.zm),
                                               static_cast<std::size_t>(box.ym),
                                               static_cast<std::size_t>(box.xm)};
        const std::array<std::size_t, 3> sub{static_cast<std::size_t>(wz),
                                             static_cast<std::size_t>(wy),
                                             static_cast<std::size_t>(wx)};
        const std::array<std::size_t, 3> starts{static_cast<std::size_t>(z0 - box.zs),
                                                static_cast<std::size_t>(y0 - box.ys),
                                                static_cast<std::size_t>(x0 - box.xs)};
        return dt::Datatype::subarray(sizes, sub, starts, elem);
    };

    // Self region: owned box copied into its position in the ghosted box.
    {
        const int rank = comm_->rank();
        g2l_scounts_[static_cast<std::size_t>(rank)] = 1;
        g2l_stypes_[static_cast<std::size_t>(rank)] =
            box_subarray(owned_, owned_.xs, owned_.xm, owned_.ys, owned_.ym, owned_.zs,
                         owned_.zm);
        g2l_rcounts_[static_cast<std::size_t>(rank)] = 1;
        g2l_rtypes_[static_cast<std::size_t>(rank)] =
            box_subarray(ghosted_, owned_.xs, owned_.xm, owned_.ys, owned_.ym, owned_.zs,
                         owned_.zm);
    }

    // One exchange per stencil neighbor.
    const int dy_range = (dim_ >= 2) ? 1 : 0;
    const int dz_range = (dim_ >= 3) ? 1 : 0;
    for (int dz = -dz_range; dz <= dz_range; ++dz) {
        for (int dy = -dy_range; dy <= dy_range; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0 && dz == 0) continue;
                const int nonzero = (dx != 0) + (dy != 0) + (dz != 0);
                if (stencil_ == Stencil::Star && nonzero > 1) continue;
                const int ncx = cx_ + dx, ncy = cy_ + dy, ncz = cz_ + dz;
                if (ncx < 0 || ncx >= px_ || ncy < 0 || ncy >= py_ || ncz < 0 || ncz >= pz_) {
                    continue;  // domain boundary: no neighbor
                }
                if (sw_ == 0) continue;
                const int nrank = ncx + px_ * (ncy + py_ * ncz);

                // Send slab: the strip of my owned box facing the neighbor.
                auto send_span = [&](int d, Index s, Index m) -> std::pair<Index, Index> {
                    if (d < 0) return {s, sw_};
                    if (d > 0) return {s + m - sw_, sw_};
                    return {s, m};
                };
                const auto [sx0, swx] = send_span(dx, owned_.xs, owned_.xm);
                const auto [sy0, swy] = send_span(dy, owned_.ys, owned_.ym);
                const auto [sz0, szw] = send_span(dz, owned_.zs, owned_.zm);
                g2l_scounts_[static_cast<std::size_t>(nrank)] = 1;
                g2l_stypes_[static_cast<std::size_t>(nrank)] =
                    box_subarray(owned_, sx0, swx, sy0, swy, sz0, szw);

                // Receive slab: my ghost strip in the neighbor's direction.
                auto recv_span = [&](int d, Index s, Index m) -> std::pair<Index, Index> {
                    if (d < 0) return {s - sw_, sw_};
                    if (d > 0) return {s + m, sw_};
                    return {s, m};
                };
                const auto [rx0, rwx] = recv_span(dx, owned_.xs, owned_.xm);
                const auto [ry0, rwy] = recv_span(dy, owned_.ys, owned_.ym);
                const auto [rz0, rzw] = recv_span(dz, owned_.zs, owned_.zm);
                g2l_rcounts_[static_cast<std::size_t>(nrank)] = 1;
                g2l_rtypes_[static_cast<std::size_t>(nrank)] =
                    box_subarray(ghosted_, rx0, rwx, ry0, rwy, rz0, rzw);

                Neighbor nb;
                nb.rank = nrank;
                nb.dx = dx;
                nb.dy = dy;
                nb.dz = dz;
                nb.send_bytes = static_cast<std::uint64_t>(swx) * static_cast<std::uint64_t>(swy) *
                                static_cast<std::uint64_t>(szw) *
                                static_cast<std::uint64_t>(dof_) * 8;
                nb.send_blocks = g2l_stypes_[static_cast<std::size_t>(nrank)].block_count();
                nb.send_box = GridBox{sx0, swx, sy0, swy, sz0, szw};
                nb.recv_box = GridBox{rx0, rwx, ry0, rwy, rz0, rzw};
                neighbors_.push_back(nb);
            }
        }
    }
}

void DMDA::global_to_local(const Vec& global, std::span<double> local,
                           const coll::CollConfig& config) const {
    coll::CollRequest req = global_to_local_begin(global, local, config);
    global_to_local_end(req);
}

coll::CollRequest DMDA::global_to_local_begin(const Vec& global, std::span<double> local,
                                              const coll::CollConfig& config) const {
    coll::CollRequest req = ghosts_begin(global, local, config);
    if (config.alltoallw_algo == coll::AlltoallwAlgo::RoundRobin) return req;  // self entry ran
    // The owned box into its place in the ghosted array, unpacked by the
    // self entry's receive type. The plan's receives write only ghost
    // points, so this runs alongside them.
    const auto self = static_cast<std::size_t>(comm_->rank());
    dt::unpack_from(local.data(), g2l_rtypes_[self], 1,
                    std::as_bytes(std::span<const double>(global.local())));
    return req;
}

coll::CollRequest DMDA::ghosts_begin(const Vec& global, std::span<double> local,
                                     const coll::CollConfig& config) const {
    NNCOMM_CHECK_MSG(global.local_size() == owned_.volume() * dof_,
                     "ghost exchange: global vector does not match this DMDA");
    NNCOMM_CHECK_MSG(static_cast<Index>(local.size()) == ghosted_.volume() * dof_,
                     "ghost exchange: local array has the wrong size");
    if (config.alltoallw_algo == coll::AlltoallwAlgo::RoundRobin) {
        return coll::ialltoallw(*comm_, global.data(), g2l_scounts_, g2l_sdispls_,
                                g2l_stypes_, local.data(), g2l_rcounts_, g2l_rdispls_,
                                g2l_rtypes_, config);
    }
    if (!g2l_plan_) {
        // Ghost slabs only: the self entry is dropped from the plan.
        const auto self = static_cast<std::size_t>(comm_->rank());
        auto scounts = g2l_scounts_, rcounts = g2l_rcounts_;
        scounts[self] = 0;
        rcounts[self] = 0;
        // Two-sided (large slabs still go rendezvous): an RMA plan's
        // closing fence spans the communicator, so no rank could finish
        // its exchange before the slowest rank reached its end().
        g2l_plan_ = std::make_unique<coll::AlltoallwPlan>(
            *comm_, scounts, g2l_sdispls_, g2l_stypes_, rcounts, g2l_rdispls_, g2l_rtypes_,
            coll::PlanTransport::TwoSided, comm_->engine_kind());
    }
    NNCOMM_CHECK_MSG(!g2l_plan_->in_flight(),
                     "ghost exchange: this DMDA's previous ghost exchange is still in flight; "
                     "complete it with global_to_local_end first");
    return g2l_plan_->begin(global.data(), local.data());
}

void DMDA::local_to_global(std::span<const double> local, Vec& global) const {
    NNCOMM_CHECK_MSG(global.local_size() == owned_.volume() * dof_,
                     "local_to_global: global vector does not match this DMDA");
    NNCOMM_CHECK_MSG(static_cast<Index>(local.size()) == ghosted_.volume() * dof_,
                     "local_to_global: local array has the wrong size");
    // Row-by-row copy of the owned region out of the ghosted array.
    double* g = global.data();
    const std::size_t row_bytes = static_cast<std::size_t>(owned_.xm) *
                                  static_cast<std::size_t>(dof_) * sizeof(double);
    std::size_t gpos = 0;
    for (Index k = owned_.zs; k < owned_.zs + owned_.zm; ++k) {
        for (Index j = owned_.ys; j < owned_.ys + owned_.ym; ++j) {
            const Index l0 = local_index(owned_.xs, j, k, 0);
            std::memcpy(g + gpos, local.data() + l0, row_bytes);
            gpos += static_cast<std::size_t>(owned_.xm) * static_cast<std::size_t>(dof_);
        }
    }
}

}  // namespace nncomm::pk
