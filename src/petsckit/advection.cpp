#include "petsckit/advection.hpp"

#include <cmath>

namespace nncomm::pk {

AdvectionDiffusionOp::AdvectionDiffusionOp(std::shared_ptr<const DMDA> dmda, double eps,
                                           std::array<double, 3> velocity,
                                           coll::CollConfig config)
    : dmda_(std::move(dmda)), eps_(eps), vel_(velocity), config_(config) {
    NNCOMM_CHECK_MSG(dmda_->dof() == 1, "AdvectionDiffusionOp: dof must be 1");
    NNCOMM_CHECK_MSG(dmda_->stencil_width() >= 1,
                     "AdvectionDiffusionOp: needs stencil width >= 1");
    NNCOMM_CHECK_MSG(eps > 0.0, "AdvectionDiffusionOp: diffusion must be positive");
    const Index m = dmda_->grid().m;
    NNCOMM_CHECK_MSG(m >= 3, "AdvectionDiffusionOp: grid too small");
    h_ = 1.0 / static_cast<double>(m - 1);
    inv_h2_ = 1.0 / (h_ * h_);
    inv_h_ = 1.0 / h_;
    ghosted_ = dmda_->create_local();
}

double AdvectionDiffusionOp::peclet() const {
    double vmax = 0.0;
    for (int a = 0; a < dmda_->dim(); ++a) {
        vmax = std::max(vmax, std::abs(vel_[static_cast<std::size_t>(a)]));
    }
    return vmax * h_ / (2.0 * eps_);
}

void AdvectionDiffusionOp::apply(const Vec& x, Vec& y) const {
    const DMDA& da = *dmda_;
    da.global_to_local(x, ghosted_, config_);

    const GridBox& o = da.owned();
    const int dim = da.dim();
    const double* loc = ghosted_.data();
    double* out = y.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                const double u = loc[da.local_index(i, j, k)];
                if (da.on_boundary(i, j, k)) {
                    out[at] = u;
                    continue;
                }
                // Eliminated Dirichlet values are zero: out-of-interior
                // neighbors simply contribute nothing.
                auto val = [&](Index ni, Index nj, Index nk) {
                    return da.on_boundary(ni, nj, nk) ? 0.0 : loc[da.local_index(ni, nj, nk)];
                };
                double acc = 2.0 * dim * eps_ * inv_h2_ * u;
                struct Axis {
                    double v;
                    double um;  // upwind-minus neighbor
                    double up;  // upwind-plus neighbor
                };
                std::array<Axis, 3> ax{};
                ax[0] = {vel_[0], val(i - 1, j, k), val(i + 1, j, k)};
                if (dim >= 2) ax[1] = {vel_[1], val(i, j - 1, k), val(i, j + 1, k)};
                if (dim >= 3) ax[2] = {vel_[2], val(i, j, k - 1), val(i, j, k + 1)};
                for (int a = 0; a < dim; ++a) {
                    acc -= eps_ * inv_h2_ * (ax[static_cast<std::size_t>(a)].um +
                                             ax[static_cast<std::size_t>(a)].up);
                    const double v = ax[static_cast<std::size_t>(a)].v;
                    if (v >= 0.0) {
                        acc += v * inv_h_ * (u - ax[static_cast<std::size_t>(a)].um);
                    } else {
                        acc += v * inv_h_ * (ax[static_cast<std::size_t>(a)].up - u);
                    }
                }
                out[at] = acc;
            }
        }
    }
}

void AdvectionDiffusionOp::fill_diagonal(Vec& d) const {
    const DMDA& da = *dmda_;
    const GridBox& o = da.owned();
    const int dim = da.dim();
    double diag = 2.0 * dim * eps_ * inv_h2_;
    for (int a = 0; a < dim; ++a) diag += std::abs(vel_[static_cast<std::size_t>(a)]) * inv_h_;
    double* out = d.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                out[at] = da.on_boundary(i, j, k) ? 1.0 : diag;
            }
        }
    }
}

}  // namespace nncomm::pk
