// Steady advection-diffusion: -eps Δu + v·∇u = f with homogeneous
// Dirichlet boundaries, discretized with first-order upwind convection on
// a DMDA grid. The operator is nonsymmetric (the reason GMRES exists);
// with upwinding it stays an M-matrix, so Jacobi-preconditioned GMRES
// converges for any Péclet number.
#pragma once

#include <array>
#include <memory>

#include "petsckit/dmda.hpp"
#include "petsckit/ksp.hpp"

namespace nncomm::pk {

class AdvectionDiffusionOp final : public LinearOperator {
public:
    /// `velocity` components beyond dmda->dim() are ignored.
    AdvectionDiffusionOp(std::shared_ptr<const DMDA> dmda, double eps,
                         std::array<double, 3> velocity, coll::CollConfig config = {});

    void apply(const Vec& x, Vec& y) const override;
    void fill_diagonal(Vec& d) const;

    const DMDA& dmda() const { return *dmda_; }
    double h() const { return h_; }
    /// Mesh Péclet number max_a |v_a| h / (2 eps) — above 1, a centered
    /// scheme would oscillate; upwinding stays monotone.
    double peclet() const;

private:
    std::shared_ptr<const DMDA> dmda_;
    double eps_;
    std::array<double, 3> vel_;
    coll::CollConfig config_;
    double h_;
    double inv_h2_;
    double inv_h_;
    mutable std::vector<double> ghosted_;
};

}  // namespace nncomm::pk
