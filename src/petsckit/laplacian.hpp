// The (negative) Laplacian on a DMDA grid with homogeneous Dirichlet
// boundaries, in two equivalent forms:
//
//   LaplacianOp      — matrix-free: each apply performs a DMDA ghost
//                      exchange and evaluates the 3/5/7-point stencil
//                      (this is the operator the multigrid solver uses, so
//                      every smoothing sweep and residual evaluation
//                      triggers the paper's nonuniform, noncontiguous
//                      neighbor communication);
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

    void apply(const Vec& x, Vec& y) const override;

    /// Diagonal of the operator (for Jacobi smoothing): 2·dim/h² on
    /// interior points, 1 on boundary points.
    void fill_diagonal(Vec& d) const;

    const DMDA& dmda() const { return *dmda_; }
    double h() const { return h_; }

private:
    std::shared_ptr<const DMDA> dmda_;
    coll::CollConfig config_;
    double h_;
    double inv_h2_;
    mutable std::vector<double> ghosted_;  ///< scratch for the ghost exchange
    std::vector<double> zero_row_;  ///< owned().xm zeros: the read of a dropped coupling
};

/// Assembles the same operator into `mat` (whose layout must be the DMDA's
/// global-vector layout). Call mat.assemble() afterwards.
void assemble_laplacian(MatAIJ& mat, const DMDA& dmda);

/// Fills `b` with the discretized right-hand side f(x,y,z) = 1 on interior
/// points (0 on boundary points), matching the operator scaling.
void fill_rhs_constant(const DMDA& dmda, Vec& b, double value = 1.0);

}  // namespace nncomm::pk
