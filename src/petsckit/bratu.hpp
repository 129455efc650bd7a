// The Bratu problem (solid-fuel ignition): -Δu - λ e^u = 0 on the unit
// square/cube with homogeneous Dirichlet boundaries — PETSc's canonical
// SNES example (ex5), here on our DMDA with the same boundary elimination
// as LaplacianOp. Solutions exist for λ below the critical value
// (~6.80 in 2-D); the Jacobian -Δ - λ e^u stays SPD in that regime, so
// Jacobi-preconditioned CG is a valid inner solver.
#pragma once

#include <memory>

#include "petsckit/dmda.hpp"
#include "petsckit/snes.hpp"

namespace nncomm::pk {

class BratuProblem final : public NonlinearSystem {
public:
    /// dmda: dof == 1, stencil width >= 1, 1/2/3-D. `lambda` must be in the
    /// subcritical range for Newton to converge.
    BratuProblem(std::shared_ptr<const DMDA> dmda, double lambda,
                 coll::CollConfig config = {});

    void residual(const Vec& x, Vec& f) const override;
    void jacobian(const Vec& x, MatAIJ& jac) const override;

    const DMDA& dmda() const { return *dmda_; }
    double lambda() const { return lambda_; }
    double h() const { return h_; }

private:
    std::shared_ptr<const DMDA> dmda_;
    double lambda_;
    coll::CollConfig config_;
    double h_;
    double inv_h2_;
    mutable std::vector<double> ghosted_;
};

}  // namespace nncomm::pk
