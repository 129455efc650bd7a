#include "petsckit/ts.hpp"

namespace nncomm::pk {

HeatImplicitOp::HeatImplicitOp(std::shared_ptr<const DMDA> dmda, double dt,
                               coll::CollConfig config)
    : lap_(std::move(dmda), config), inv_dt_(1.0 / dt) {
    NNCOMM_CHECK_MSG(dt > 0.0, "HeatImplicitOp: dt must be positive");
}

void HeatImplicitOp::apply(const Vec& x, Vec& y) const {
    // y = (-Δ)x with identity boundary rows ...
    lap_.apply(x, y);
    // ... plus x/dt on interior points only (boundary rows stay pure
    // identity so Dirichlet values are preserved exactly).
    const DMDA& da = lap_.dmda();
    const GridBox& o = da.owned();
    const double* xd = x.data();
    double* yd = y.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                if (!da.on_boundary(i, j, k)) yd[at] += inv_dt_ * xd[at];
            }
        }
    }
}

void HeatImplicitOp::fill_diagonal(Vec& d) const {
    lap_.fill_diagonal(d);
    const DMDA& da = lap_.dmda();
    const GridBox& o = da.owned();
    double* dd = d.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                if (!da.on_boundary(i, j, k)) dd[at] += inv_dt_;
            }
        }
    }
}

HeatSolver::HeatSolver(std::shared_ptr<const DMDA> dmda, const TsConfig& config)
    : dmda_(dmda), config_(config), lap_(dmda, config.coll) {
    NNCOMM_CHECK_MSG(config.dt > 0.0, "HeatSolver: dt must be positive");
    if (config_.scheme == TimeScheme::BackwardEuler) {
        implicit_op_ = std::make_unique<HeatImplicitOp>(dmda_, config_.dt, config_.coll);
        Vec d = Vec(dmda_->comm(), dmda_->layout());
        implicit_op_->fill_diagonal(d);
        pc_ = std::make_unique<JacobiPreconditioner>(std::move(d));
    }
    rhs_ = Vec(dmda_->comm(), dmda_->layout());
    lap_u_ = rhs_.clone_empty();
}

double HeatSolver::explicit_stability_limit() const {
    const double h = lap_.h();
    return h * h / (2.0 * dmda_->dim());
}

int HeatSolver::step(Vec& u, const Vec* forcing) {
    const GridBox& o = dmda_->owned();
    int iters = 0;
    if (config_.scheme == TimeScheme::BackwardEuler) {
        // rhs = u/dt + f on interior, 0 on boundary.
        const double inv_dt = 1.0 / config_.dt;
        const double* ud = u.data();
        const double* fd = forcing ? forcing->data() : nullptr;
        double* rd = rhs_.data();
        std::size_t at = 0;
        for (Index k = o.zs; k < o.zs + o.zm; ++k) {
            for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                    rd[at] = dmda_->on_boundary(i, j, k)
                                 ? 0.0
                                 : inv_dt * ud[at] + (fd ? fd[at] : 0.0);
                }
            }
        }
        const KspResult r = cg(*implicit_op_, rhs_, u, config_.ksp, pc_.get());
        NNCOMM_CHECK_MSG(r.converged, "HeatSolver: implicit solve did not converge");
        iters = r.iterations;
    } else {
        // u += dt * (Δu + f); LaplacianOp computes -Δ (identity on
        // boundary), so subtract it and pin boundary values.
        lap_.apply(u, lap_u_);
        const double* fd = forcing ? forcing->data() : nullptr;
        const double* ld = lap_u_.data();
        double* ud = u.data();
        std::size_t at = 0;
        for (Index k = o.zs; k < o.zs + o.zm; ++k) {
            for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                    if (dmda_->on_boundary(i, j, k)) {
                        ud[at] = 0.0;
                    } else {
                        ud[at] += config_.dt * (-ld[at] + (fd ? fd[at] : 0.0));
                    }
                }
            }
        }
    }
    time_ += config_.dt;
    return iters;
}

int HeatSolver::advance(Vec& u, int steps, const Vec* forcing) {
    int total = 0;
    for (int s = 0; s < steps; ++s) total += step(u, forcing);
    return total;
}

}  // namespace nncomm::pk
