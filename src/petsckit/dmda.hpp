// DMDA: distributed 1/2/3-D structured grids (PETSc's DMDA / "DA").
//
// The grid is decomposed over a process grid px × py × pz (tensor-product
// decomposition, each axis split with split_ownership). Each rank owns a
// box of grid points; a point carries `dof` interlaced field values.
// Global vectors store the owned box contiguously per rank (x fastest,
// then y, then z, dof innermost — PETSc's ordering).
//
// Ghost exchange (global_to_local) fills a rank-local "ghosted" array that
// extends the owned box by the stencil width in every direction with data
// owned by neighbor ranks:
//   Star stencil — neighbors along the axes only (faces);
//   Box stencil  — also edge and corner neighbors.
// The exchange is exactly the paper's motivating pattern: per-neighbor
// subarray datatypes (noncontiguous, strided slabs) moved with Alltoallw,
// where face slabs are much larger than edge/corner slabs (nonuniform
// volumes) and non-neighbors exchange nothing (zero volumes).
//
// The exchange is the same on every stencil apply, so each DMDA compiles
// it once: the first Binned/Auto exchange builds a persistent
// coll::AlltoallwPlan from the prebuilt per-neighbor subarray arrays (the
// in-process analogue of MPI-4's MPI_Neighbor_alltoallw_init), and every
// later call runs that plan — no schedule compile, no pack-engine
// construction, no staging allocation. The plan moves ghost slabs only:
// it has no self entry. ghosts_begin runs it as is, for callers that read
// owned values straight from the global vector (the stencil pass), and
// global_to_local_begin adds a copy of the owned box into the local
// array. The plan is always two-sided: the RMA lowering closes each
// execution with a fence over the whole
// communicator, which ties every rank's completion to the slowest rank's
// and so cancels the split-phase overlap (EXPERIMENTS.md has the
// measurements). RoundRobin calls stay one-shot ialltoallw: they are the
// paper's non-persistent MPICH2 baseline, the same rule
// VecScatter::begin_datatype follows.
//
// The plan is single-flight: a ghosts_begin or global_to_local_begin while
// this DMDA's previous exchange has not been completed with
// global_to_local_end throws. The returned request shares ownership of
// the plan's execution state, so it stays safe to complete after the DMDA
// is destroyed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/persistent.hpp"
#include "coll/schedule.hpp"
#include "petsckit/vec.hpp"

namespace nncomm::pk {

enum class Stencil { Star, Box };

struct GridSize {
    Index m = 1;  ///< points along x
    Index n = 1;  ///< points along y
    Index p = 1;  ///< points along z
};

/// A box of grid points in global coordinates: [xs, xs+xm) x [ys, ...] ...
struct GridBox {
    Index xs = 0, xm = 1;
    Index ys = 0, ym = 1;
    Index zs = 0, zm = 1;
    Index volume() const { return xm * ym * zm; }
    bool contains(Index i, Index j, Index k) const {
        return i >= xs && i < xs + xm && j >= ys && j < ys + ym && k >= zs && k < zs + zm;
    }
    /// True if every point of `b` lies in this box (an empty `b` always does).
    bool covers(const GridBox& b) const {
        return b.volume() == 0 || (contains(b.xs, b.ys, b.zs) &&
                                   contains(b.xs + b.xm - 1, b.ys + b.ym - 1, b.zs + b.zm - 1));
    }
};

class DMDA {
public:
    DMDA(rt::Comm& comm, int dim, GridSize size, int dof, int stencil_width, Stencil stencil);

    // -- shape -------------------------------------------------------------------
    rt::Comm& comm() const { return *comm_; }
    int dim() const { return dim_; }
    GridSize grid() const { return size_; }
    int dof() const { return dof_; }
    int stencil_width() const { return sw_; }
    Stencil stencil() const { return stencil_; }
    /// Process-grid extents (px, py, pz).
    std::array<int, 3> proc_grid() const { return {px_, py_, pz_}; }
    /// This rank's process-grid coordinates.
    std::array<int, 3> proc_coords() const { return {cx_, cy_, cz_}; }

    const GridBox& owned() const { return owned_; }
    const GridBox& ghosted() const { return ghosted_; }

    /// The owned box of an arbitrary rank (computable locally).
    GridBox owned_box_of(int rank) const;

    // -- vectors -----------------------------------------------------------------
    std::shared_ptr<const Layout> layout() const { return layout_; }
    Vec create_global() const { return Vec(*comm_, layout_); }
    /// Zeroed ghosted storage: ghosted().volume() * dof doubles.
    std::vector<double> create_local() const {
        return std::vector<double>(static_cast<std::size_t>(ghosted_.volume()) *
                                       static_cast<std::size_t>(dof_),
                                   0.0);
    }

    /// Fills `local` (ghosted storage) from the global vector: owned region
    /// plus all ghost slabs from neighbors. Collective.
    void global_to_local(const Vec& global, std::span<double> local,
                         const coll::CollConfig& config = {}) const;

    /// Split-phase ghost exchange: fires the Alltoallw schedule and returns
    /// while the ghost slabs are in flight. The owned region of `local` is
    /// already filled when this returns (the owned box is copied after the
    /// exchange fires), so interior stencil points can be computed before
    /// _end. Drive the returned request with test() for overlap progress;
    /// complete it with global_to_local_end. begin + end is bit-identical to
    /// global_to_local. Binned/Auto configs run the DMDA's persistent plan
    /// and throw while a previous exchange on this DMDA is still in flight;
    /// RoundRobin runs one-shot.
    coll::CollRequest global_to_local_begin(const Vec& global, std::span<double> local,
                                            const coll::CollConfig& config = {}) const;
    /// The ghost half of global_to_local_begin: once the returned request is
    /// completed with global_to_local_end, every ghost point of `local` holds
    /// the same bits global_to_local writes there. The owned region of
    /// `local` is unspecified (the persistent plan leaves it untouched; the
    /// one-shot RoundRobin exchange fills it), so a caller reads owned
    /// values from `global` itself. Same single-flight rule and algorithm
    /// choice as global_to_local_begin.
    coll::CollRequest ghosts_begin(const Vec& global, std::span<double> local,
                                   const coll::CollConfig& config = {}) const;
    /// Completes a split-phase exchange begun by global_to_local_begin or
    /// ghosts_begin.
    static void global_to_local_end(coll::CollRequest& req) { req.wait(); }

    /// Copies the owned region of `local` back into the global vector
    /// (insert mode; purely local).
    void local_to_global(std::span<const double> local, Vec& global) const;

    // -- indexing ------------------------------------------------------------------
    /// Global (PETSc-ordering) vector index of grid point (i, j, k),
    /// component c. Works for any point in the domain, owned or not.
    Index global_index(Index i, Index j, Index k, int c = 0) const;
    /// Index into this rank's ghosted storage (point must lie in ghosted()).
    Index local_index(Index i, Index j, Index k, int c = 0) const;
    bool owns(Index i, Index j, Index k) const { return owned_.contains(i, j, k); }

    // -- Dirichlet boundary ----------------------------------------------------------
    /// True if grid point (i, j, k) lies on the domain boundary: the first or
    /// last grid plane of an active axis. The one boundary test every
    /// Dirichlet operator, right-hand side and grid transfer uses.
    bool on_boundary(Index i, Index j, Index k) const {
        return i == 0 || i == size_.m - 1 || row_on_boundary(j, k);
    }
    /// True if the whole x-row (j, k) lies on the boundary (its j or k is the
    /// first or last plane of an active y or z axis); row kernels decide this
    /// once per row and test only i per point.
    bool row_on_boundary(Index j, Index k) const {
        return (dim_ >= 2 && (j == 0 || j == size_.n - 1)) ||
               (dim_ >= 3 && (k == 0 || k == size_.p - 1));
    }

    // -- ghost-exchange introspection ------------------------------------------------
    struct Neighbor {
        int rank = -1;
        int dx = 0, dy = 0, dz = 0;
        std::uint64_t send_bytes = 0;   ///< ghost payload sent to this neighbor
        std::uint64_t send_blocks = 0;  ///< contiguous blocks in the send slab
        GridBox send_box{};  ///< owned slab sent in global_to_local (global coords)
        GridBox recv_box{};  ///< ghost slab received in global_to_local
    };
    /// Neighbors this rank exchanges ghosts with (excludes self).
    const std::vector<Neighbor>& neighbors() const { return neighbors_; }

    /// Deterministic process-grid factorization (exposed for tests and the
    /// simulator bridge): splits nprocs into (px, py, pz) minimizing
    /// communication surface subject to axis extents.
    static std::array<int, 3> factor_grid(int nprocs, int dim, GridSize size);

    // -- communicator-free decomposition (simulator bridge) ---------------------
    /// The owned boxes of all ranks of a hypothetical DMDA — pure math, no
    /// communicator. Used by the benchmark harness to compute 128-process
    /// traffic matrices on a small host.
    static std::vector<GridBox> decompose(int nprocs, int dim, GridSize size);

    struct TrafficEntry {
        int src = -1;
        int dst = -1;
        std::uint64_t bytes = 0;   ///< ghost slab payload
        std::uint64_t blocks = 0;  ///< contiguous runs in the send slab
    };
    /// Every ghost-exchange message of one global_to_local on a
    /// hypothetical DMDA (self transfers excluded) — matches what
    /// neighbors() reports on a live instance.
    static std::vector<TrafficEntry> ghost_traffic(int nprocs, int dim, GridSize size, int dof,
                                                   int stencil_width, Stencil stencil);

private:
    void build_exchange();
    GridBox ghosted_box_of(int rank) const;

    rt::Comm* comm_;
    int dim_;
    GridSize size_;
    int dof_;
    int sw_;
    Stencil stencil_;

    int px_ = 1, py_ = 1, pz_ = 1;
    int cx_ = 0, cy_ = 0, cz_ = 0;
    GridBox owned_{};
    GridBox ghosted_{};
    std::shared_ptr<const Layout> layout_;

    std::vector<Neighbor> neighbors_;
    // Prebuilt Alltoallw arrays for the ghost exchange, self entry (owned
    // box into the local array) included: the one-shot RoundRobin path runs
    // them as they are, the persistent plan without the self entry, and
    // global_to_local_begin copies the owned box with the self receive
    // type.
    std::vector<std::size_t> g2l_scounts_, g2l_rcounts_;
    std::vector<std::ptrdiff_t> g2l_sdispls_, g2l_rdispls_;
    std::vector<dt::Datatype> g2l_stypes_, g2l_rtypes_;
    // The persistent ghost plan (ghost slabs only), built lazily by the
    // first Binned/Auto exchange. Each rank thread owns its DMDA (like its
    // Comm), so mutable-without-locks is safe.
    mutable std::unique_ptr<coll::AlltoallwPlan> g2l_plan_;
};

}  // namespace nncomm::pk
