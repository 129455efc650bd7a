// Geometric multigrid for the DMDA Laplacian (the paper's §5.5
// application: a 3-D Laplacian multi-grid solver with three levels).
//
// Grids coarsen by a factor of two per level (vertex-centered: the finer
// grid must satisfy m_fine = 2·m_coarse − 1 along every active axis).
// Per V-cycle and level, with one pass over the grid per stencil step:
//   - pre-smoothing: damped Jacobi sweeps, each one LaplacianOp::
//     jacobi_sweep (a DMDA ghost exchange and one stencil pass computing
//     x + ω(b - A x)/d, d the operator's own diagonal, into the level's r,
//     which then trades storage with x),
//   - the residual r = b - A x: one LaplacianOp::residual pass,
//   - residual restriction: full weighting (tensor of [¼ ½ ¼]) through a
//     PatchGather of the fine residual, one vectorized row kernel per
//     coarse row,
//   - recursion to the coarse level; on the coarsest, a redundant direct
//     solve (PETSc's PCREDUNDANT): one allgatherv gathers the coarse
//     right-hand side onto every rank, and each rank solves the whole
//     coarse system with a banded Cholesky factor built once at setup,
//   - prolongation: trilinear interpolation through a PatchGather of the
//     coarse correction, one vectorized kernel per fine row computing an
//     even/odd fine pair per coarse column,
//   - post-smoothing.
// No full-vector copy is made: the finest level reads the caller's b in
// place and iterates on the caller's x storage, and no stencil pass copies
// its input's owned box (the ghost exchange fills ghost points only).
// Each transfer kernel lane keeps the scalar operation order, so the
// outputs are bit-identical to point-at-a-time loops.
//
// Every communication-bearing step (ghost exchange, both patch gathers,
// the coarse allgatherv) runs through the configured ScatterBackend /
// collective algorithms, so the whole solver can be executed in the
// paper's three configurations: hand-tuned, datatype+baseline-MPI,
// datatype+optimized-MPI.
#pragma once

#include <memory>
#include <vector>

#include "petsckit/laplacian.hpp"
#include "petsckit/patch.hpp"

namespace nncomm::pk {

enum class Smoother {
    Jacobi,     ///< damped point Jacobi (omega = 2/3 by default)
    Chebyshev,  ///< Jacobi-preconditioned Chebyshev (PETSc's default)
};

enum class CycleType {
    V,  ///< one coarse-grid correction per level
    W,  ///< two recursive corrections per level (gamma = 2)
};

struct MGConfig {
    int levels = 3;
    CycleType cycle_type = CycleType::V;
    int pre_smooth = 2;
    int post_smooth = 2;
    Smoother smoother = Smoother::Jacobi;
    double jacobi_omega = 2.0 / 3.0;
    /// Chebyshev targets [eig_fraction_lo, eig_fraction_hi] * lambda_max
    /// with lambda_max estimated by power iteration at setup (PETSc's
    /// 0.1/1.1 convention).
    double cheby_fraction_lo = 0.1;
    double cheby_fraction_hi = 1.1;
    int cheby_power_iters = 12;
    /// Backend for inter-grid transfers and the collective config for
    /// ghost exchanges — the paper's experiment knob.
    ScatterBackend scatter_backend = ScatterBackend::HandTuned;
    coll::CollConfig coll{};
};

class MGSolver {
public:
    /// Builds the level hierarchy on `comm`. The fine grid must coarsen
    /// `config.levels - 1` times (every active extent m satisfies
    /// m = 2^(levels-1) * (m_coarsest - 1) + 1), and the coarsest grid's
    /// band factor must fit a fixed cap of 16 MiB per rank (a 17³ coarsest
    /// grid fits, 33³ does not); use more levels otherwise.
    MGSolver(rt::Comm& comm, int dim, GridSize fine, const MGConfig& config = {});
    MGSolver(MGSolver&&) noexcept;
    MGSolver& operator=(MGSolver&&) noexcept;
    ~MGSolver();

    const DMDA& fine_dmda() const { return *levels_.front().dmda; }
    const LaplacianOp& fine_op() const { return *levels_.front().op; }
    int num_levels() const { return static_cast<int>(levels_.size()); }
    const MGConfig& config() const { return config_; }

    /// One V-cycle improving x for A x = b on the fine grid. Collective.
    /// b is read in place and x is updated in its own storage (x.data() is
    /// unchanged on return); neither is copied. b and x must be different
    /// vectors.
    void v_cycle(const Vec& b, Vec& x);

    /// Iterates V-cycles until the fine residual drops below rtol * ||r0||
    /// (or max_cycles). Returns KSP-style statistics.
    KspResult solve(const Vec& b, Vec& x, double rtol = 1e-8, int max_cycles = 50);

private:
    struct Level {
        std::shared_ptr<const DMDA> dmda;
        std::unique_ptr<LaplacianOp> op;
        // Chebyshev smoother data, absent on the coarsest level (which never
        // smooths) and for the Jacobi smoother:
        std::unique_ptr<JacobiPreconditioner> jacobi;
        double lambda_max = 0.0;  ///< power-iteration estimate of D^-1 A
        // Work vectors. Level 0 has no b (it reads the caller's in place)
        // and holds the caller's x only during v_cycle.
        Vec b;  ///< right-hand side: the restricted residual
        Vec x;  ///< iterate (correction levels start from zero)
        Vec r;  ///< residual; a Jacobi sweep's output, then swapped with x
        // Transfers to/from the next-coarser level (absent on the coarsest):
        std::unique_ptr<PatchGather> fine_patch;    ///< fine residual around coarse box
        std::unique_ptr<PatchGather> coarse_patch;  ///< coarse correction around fine box
    };

    void smooth(Level& lvl, const Vec& b, int sweeps);  ///< improves lvl.x
    void cycle(std::size_t l, const Vec& b);  ///< V/W-cycle on level l (0 = finest)
    void restrict_residual(std::size_t fine_level);
    void prolong_and_correct(std::size_t fine_level);

    class CoarseDirect;  ///< the redundant direct coarsest-level solve

    MGConfig config_;
    std::vector<Level> levels_;  ///< [0] = finest
    std::unique_ptr<CoarseDirect> coarse_direct_;
};

}  // namespace nncomm::pk
