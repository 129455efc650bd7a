// The (negative) Laplacian on a DMDA grid with homogeneous Dirichlet
// boundaries, in two equivalent forms:
//
//   LaplacianOp      — matrix-free: each apply performs a DMDA ghost
//                      exchange and evaluates the 3/5/7-point stencil
//                      (this is the operator the multigrid solver uses, so
//                      every smoothing sweep and residual evaluation
//                      triggers the paper's nonuniform, noncontiguous
//                      neighbor communication). The exchange moves ghost
//                      points only; owned values are read from x in place.
//                      The residual r = b - A x and the damped Jacobi sweep
//                      x + ω(b - A x)/d (d the operator's diagonal) are
//                      the same single stencil pass with a different
//                      per-point epilogue, bit-identical to apply followed
//                      by the separate vector operations;
//   assemble_laplacian — the same operator assembled into a MatAIJ (used
//                      by tests to validate both paths against each other
//                      and by the Krylov examples).
//
// Boundary handling (DMDA::on_boundary): boundary grid points are kept as
// unknowns with identity rows, and interior stencil couplings to boundary
// points are dropped (the eliminated values are zero), which keeps the
// operator symmetric positive definite. Grid spacing h = 1/(m-1) per axis, so the
// operator is (1/h²)(2d·I - adjacency) on interior points.
#pragma once

#include <memory>
#include <vector>

#include "petsckit/dmda.hpp"
#include "petsckit/ksp.hpp"

namespace nncomm::pk {

class LaplacianOp final : public LinearOperator {
public:
    /// `dmda` must have dof == 1. The collective config selects the ghost
    /// exchange algorithm (the knob the paper's application benchmark
    /// turns).
    explicit LaplacianOp(std::shared_ptr<const DMDA> dmda, coll::CollConfig config = {});

    /// y = A x. `y` must not be `x`.
    void apply(const Vec& x, Vec& y) const override;

    /// r = b - A x in one pass: the same bits as apply(x, r) followed by
    /// r.waxpy_diff(b, r). `r` must be neither `b` nor `x`.
    void residual(const Vec& b, const Vec& x, Vec& r) const;

    /// One damped Jacobi sweep in one pass: x_out = x + ω (b - A x) / d with
    /// d the operator's own diagonal (what fill_diagonal writes), the same
    /// bits as r = b - A x followed by x_out[i] = x[i] + ω r[i] / d[i]. `x`
    /// is never written (the ghost exchange reads it while the pass runs),
    /// so the caller ping-pongs two vectors; `x_out` must be neither `b`
    /// nor `x`.
    void jacobi_sweep(const Vec& b, double omega, const Vec& x, Vec& x_out) const;

    /// Diagonal of the operator (for Jacobi smoothing): 2·dim/h² on
    /// interior points, 1 on boundary points.
    void fill_diagonal(Vec& d) const;

    const DMDA& dmda() const { return *dmda_; }
    double h() const { return h_; }

private:
    /// The split-phase stencil pass shared by apply, residual and
    /// jacobi_sweep: y[p] = epilogue(p, (A x)[p], x[p], A[p][p]) for every
    /// owned point p. Owned values are read from x in place; the ghost
    /// exchange (DMDA::ghosts_begin) fills only the scratch's ghost points.
    /// `who` names the caller in error messages.
    template <class Epilogue>
    void stencil_pass(const Vec& x, Vec& y, const char* who, Epilogue epilogue) const;

    std::shared_ptr<const DMDA> dmda_;
    coll::CollConfig config_;
    double h_;
    double inv_h2_;
    /// Ghosted scratch for the ghost exchange: only its ghost points are
    /// read.
    mutable std::vector<double> ghosted_;
    std::vector<double> zero_row_;  ///< owned().xm zeros: the read of a dropped coupling
};

/// Assembles the same operator into `mat` (whose layout must be the DMDA's
/// global-vector layout). Call mat.assemble() afterwards.
void assemble_laplacian(MatAIJ& mat, const DMDA& dmda);

/// Fills `b` with the discretized right-hand side f(x,y,z) = 1 on interior
/// points (0 on boundary points), matching the operator scaling.
void fill_rhs_constant(const DMDA& dmda, Vec& b, double value = 1.0);

}  // namespace nncomm::pk
