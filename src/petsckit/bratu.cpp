#include "petsckit/bratu.hpp"

#include <cmath>

namespace nncomm::pk {

BratuProblem::BratuProblem(std::shared_ptr<const DMDA> dmda, double lambda,
                           coll::CollConfig config)
    : dmda_(std::move(dmda)), lambda_(lambda), config_(config) {
    NNCOMM_CHECK_MSG(dmda_->dof() == 1, "BratuProblem: dof must be 1");
    NNCOMM_CHECK_MSG(dmda_->stencil_width() >= 1, "BratuProblem: needs stencil width >= 1");
    NNCOMM_CHECK_MSG(lambda_ >= 0.0, "BratuProblem: lambda must be nonnegative");
    const Index m = dmda_->grid().m;
    NNCOMM_CHECK_MSG(m >= 3, "BratuProblem: grid too small");
    h_ = 1.0 / static_cast<double>(m - 1);
    inv_h2_ = 1.0 / (h_ * h_);
    ghosted_ = dmda_->create_local();
}

void BratuProblem::residual(const Vec& x, Vec& f) const {
    const DMDA& da = *dmda_;
    da.global_to_local(x, ghosted_, config_);

    const GridBox& o = da.owned();
    const int dim = da.dim();
    const double two_d = 2.0 * dim;
    const double* loc = ghosted_.data();
    double* out = f.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                const double u = loc[da.local_index(i, j, k)];
                if (da.on_boundary(i, j, k)) {
                    out[at] = u;  // Dirichlet: F = u - 0
                    continue;
                }
                double lap = two_d * u;
                if (i > 1) lap -= loc[da.local_index(i - 1, j, k)];
                if (i < da.grid().m - 2) lap -= loc[da.local_index(i + 1, j, k)];
                if (dim >= 2) {
                    if (j > 1) lap -= loc[da.local_index(i, j - 1, k)];
                    if (j < da.grid().n - 2) lap -= loc[da.local_index(i, j + 1, k)];
                }
                if (dim >= 3) {
                    if (k > 1) lap -= loc[da.local_index(i, j, k - 1)];
                    if (k < da.grid().p - 2) lap -= loc[da.local_index(i, j, k + 1)];
                }
                out[at] = lap * inv_h2_ - lambda_ * std::exp(u);
            }
        }
    }
}

void BratuProblem::jacobian(const Vec& x, MatAIJ& jac) const {
    const DMDA& da = *dmda_;
    const GridBox& o = da.owned();
    const int dim = da.dim();

    const double* u = x.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                const Index row = da.global_index(i, j, k);
                if (da.on_boundary(i, j, k)) {
                    jac.set_value(row, row, 1.0);
                    continue;
                }
                jac.set_value(row, row, 2.0 * dim * inv_h2_ - lambda_ * std::exp(u[at]));
                auto couple = [&](Index ni, Index nj, Index nk) {
                    if (!da.on_boundary(ni, nj, nk)) {
                        jac.set_value(row, da.global_index(ni, nj, nk), -inv_h2_);
                    }
                };
                couple(i - 1, j, k);
                couple(i + 1, j, k);
                if (dim >= 2) {
                    couple(i, j - 1, k);
                    couple(i, j + 1, k);
                }
                if (dim >= 3) {
                    couple(i, j, k - 1);
                    couple(i, j, k + 1);
                }
            }
        }
    }
}

}  // namespace nncomm::pk
