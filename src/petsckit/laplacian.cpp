#include "petsckit/laplacian.hpp"

#include <algorithm>
#include <string>

namespace nncomm::pk {

namespace {

/// `b` grown by one point along each active axis, clamped to the grid: the
/// reach of a 3/5/7-point stencil evaluated on `b`.
GridBox grow_one(const GridBox& b, GridSize g, int dim) {
    auto axis = [](Index s, Index m, Index n, bool active, Index& gs, Index& gm) {
        gs = active ? std::max<Index>(0, s - 1) : s;
        gm = (active ? std::min<Index>(n, s + m + 1) : s + m) - gs;
    };
    GridBox r;
    axis(b.xs, b.xm, g.m, true, r.xs, r.xm);
    axis(b.ys, b.ym, g.n, dim >= 2, r.ys, r.ym);
    axis(b.zs, b.zm, g.p, dim >= 3, r.zs, r.zm);
    return r;
}

}  // namespace

LaplacianOp::LaplacianOp(std::shared_ptr<const DMDA> dmda, coll::CollConfig config)
    : dmda_(std::move(dmda)), config_(config) {
    NNCOMM_CHECK_MSG(dmda_->dof() == 1, "LaplacianOp: dof must be 1");
    NNCOMM_CHECK_MSG(dmda_->stencil_width() >= 1, "LaplacianOp: needs stencil width >= 1");
    const Index m = dmda_->grid().m;
    NNCOMM_CHECK_MSG(m >= 2, "LaplacianOp: grid too small");
    h_ = 1.0 / static_cast<double>(m - 1);
    inv_h2_ = 1.0 / (h_ * h_);
    ghosted_ = dmda_->create_local();
    zero_row_.assign(static_cast<std::size_t>(dmda_->owned().xm), 0.0);
}

template <class Epilogue>
void LaplacianOp::stencil_pass(const Vec& x, Vec& y, const char* who, Epilogue epilogue) const {
    const DMDA& da = *dmda_;
    const GridBox& o = da.owned();
    const GridBox& gb = da.ghosted();
    const GridSize g = da.grid();
    const int dim = da.dim();
    NNCOMM_CHECK_MSG(y.local_size() == o.volume() * da.dof(),
                     std::string(who) + ": output vector does not match the DMDA");
    // y is written while the exchange still reads x's send slabs.
    NNCOMM_CHECK_MSG(&y != &x, std::string(who) + ": output vector must not be x");
    // Every read below lies in the owned box grown by one point along each
    // active axis; this one check covers all of them.
    NNCOMM_CHECK_MSG(gb.covers(grow_one(o, g, dim)),
                     std::string(who) + ": ghosted box does not cover the stencil");

    const double two_d = 2.0 * dim;
    const double inv_h2 = inv_h2_;
    const double diag = two_d * inv_h2;  // fill_diagonal's interior value
    const double* own = x.data();
    const double* ghost = ghosted_.data();
    const double* zero = zero_row_.data();
    double* out = y.data();
    const Index xe = o.xs + o.xm, ye = o.ys + o.ym, ze = o.zs + o.zm;

    // Row kernel: points [i0, i1) of the owned x-row (j, k). Owned values
    // are read in place from x; only values outside the owned box come
    // from the ghosted scratch, whose owned region is never read. Every
    // point is computed exactly once, by this kernel, whether it runs
    // before or after the ghost exchange completes, so the overlapped pass
    // is bit-identical to a blocking one. The operation order per point is
    // fixed: 2d*c - (i-1) - (i+1) - (j-1) - (j+1) - (k-1) - (k+1), then
    // * 1/h², then the epilogue, which also receives the point's own value
    // c and the operator's diagonal there. Couplings to boundary points
    // are dropped (their values are eliminated zeros). A dropped y/z
    // coupling, or one along an inactive axis, reads the zero row instead:
    // acc - (+0.0) == acc for every acc, so that is bit-identical to
    // skipping the term and keeps the inner loop branch-free.
    auto row = [&](Index j, Index k, Index i0, Index i1) {
        if (i1 <= i0) return;
        const Index n = i1 - i0;
        const Index p0 = ((k - o.zs) * o.ym + (j - o.ys)) * o.xm + (i0 - o.xs);
        double* dst = out + p0;
        const double* c = own + p0;
        if (da.row_on_boundary(j, k)) {
            // Identity rows (Dirichlet unknowns): (A x)[p] = x[p], diagonal 1.
            for (Index q = 0; q < n; ++q) dst[q] = epilogue(p0 + q, c[q], c[q], 1.0);
            return;
        }
        // The same row in the ghosted scratch, for neighbours outside the
        // owned box.
        const double* gc =
            ghost + (((k - gb.zs) * gb.ym + (j - gb.ys)) * gb.xm + (i0 - gb.xs));
        const Index oy = o.xm, oz = o.xm * o.ym, gy = gb.xm, gz = gb.xm * gb.ym;
        const double* jm = !(dim >= 2 && j > 1) ? zero : j > o.ys ? c - oy : gc - gy;
        const double* jp = !(dim >= 2 && j < g.n - 2) ? zero : j + 1 < ye ? c + oy : gc + gy;
        const double* km = !(dim >= 3 && k > 1) ? zero : k > o.zs ? c - oz : gc - gz;
        const double* kp = !(dim >= 3 && k < g.p - 2) ? zero : k + 1 < ze ? c + oz : gc + gz;
        // Peeled points: i = 0, 1, m-2, m-1 and the owned end points
        // whose x neighbour is a ghost.
        auto edge = [&](Index q) {
            const Index i = i0 + q;
            if (da.on_boundary(i, j, k)) {
                dst[q] = epilogue(p0 + q, c[q], c[q], 1.0);
                return;
            }
            double acc = two_d * c[q];
            if (i > 1) acc -= i > o.xs ? c[q - 1] : gc[q - 1];
            if (i < g.m - 2) acc -= i + 1 < xe ? c[q + 1] : gc[q + 1];
            acc -= jm[q];
            acc -= jp[q];
            acc -= km[q];
            acc -= kp[q];
            dst[q] = epilogue(p0 + q, acc * inv_h2, c[q], diag);
        };
        // [lo, hi): the points with 2 <= i < m-2 whose x neighbours are
        // both owned.
        const Index lo = std::clamp<Index>(std::max<Index>(2, o.xs + 1) - i0, 0, n);
        const Index hi = std::clamp<Index>(std::min<Index>(g.m - 2, xe - 1) - i0, lo, n);
        for (Index q = 0; q < lo; ++q) edge(q);
        for (Index q = lo; q < hi; ++q) {
            double acc = two_d * c[q];
            acc -= c[q - 1];
            acc -= c[q + 1];
            acc -= jm[q];
            acc -= jp[q];
            acc -= km[q];
            acc -= kp[q];
            dst[q] = epilogue(p0 + q, acc * inv_h2, c[q], diag);
        }
        for (Index q = hi; q < n; ++q) edge(q);
    };

    // Split-phase ghost exchange. The interior — the owned box less one
    // point on each side where the ghosted box extends past it, i.e. each
    // side that faces a neighbour rank — reads only owned points, so it
    // overlaps the in-flight ghost slabs. The shell (the faces toward
    // neighbour ranks) runs after the exchange completes.
    coll::CollRequest exchange = da.ghosts_begin(x, ghosted_, config_);

    auto inner = [](Index s, Index e, Index gs, Index ge, Index& lo, Index& hi) {
        lo = s + (gs < s ? 1 : 0);
        hi = std::max(lo, e - (ge > e ? 1 : 0));
    };
    Index ilo, ihi, jlo, jhi, klo, khi;
    inner(o.xs, xe, gb.xs, gb.xs + gb.xm, ilo, ihi);
    inner(o.ys, ye, gb.ys, gb.ys + gb.ym, jlo, jhi);
    inner(o.zs, ze, gb.zs, gb.zs + gb.zm, klo, khi);
    for (Index k = klo; k < khi; ++k) {
        for (Index j = jlo; j < jhi; ++j) row(j, k, ilo, ihi);
    }

    DMDA::global_to_local_end(exchange);

    // The shell: whole rows on the faces toward y/z neighbours, and the
    // end points facing x neighbours on every other row.
    for (Index k = o.zs; k < ze; ++k) {
        for (Index j = o.ys; j < ye; ++j) {
            if (k < klo || k >= khi || j < jlo || j >= jhi) {
                row(j, k, o.xs, xe);
            } else {
                row(j, k, o.xs, ilo);
                row(j, k, ihi, xe);
            }
        }
    }
}

void LaplacianOp::apply(const Vec& x, Vec& y) const {
    stencil_pass(x, y, "LaplacianOp::apply",
                 [](Index, double ax, double, double) { return ax; });
}

void LaplacianOp::residual(const Vec& b, const Vec& x, Vec& r) const {
    NNCOMM_CHECK_MSG(b.local_size() == r.local_size(),
                     "LaplacianOp::residual: b and r differ in size");
    NNCOMM_CHECK_MSG(&r != &b, "LaplacianOp::residual: output vector must not be b");
    const double* bd = b.data();
    stencil_pass(x, r, "LaplacianOp::residual",
                 [bd](Index p, double ax, double, double) { return bd[p] - ax; });
}

void LaplacianOp::jacobi_sweep(const Vec& b, double omega, const Vec& x, Vec& x_out) const {
    NNCOMM_CHECK_MSG(b.local_size() == x_out.local_size(),
                     "LaplacianOp::jacobi_sweep: b and x_out differ in size");
    NNCOMM_CHECK_MSG(&x_out != &b, "LaplacianOp::jacobi_sweep: output vector must not be b");
    const double* bd = b.data();
    // x + ((ω r) / d) with r = b - A x: the order of x[i] += ω r[i] / d[i].
    stencil_pass(x, x_out, "LaplacianOp::jacobi_sweep",
                 [bd, omega](Index p, double ax, double xc, double d) {
                     return xc + omega * (bd[p] - ax) / d;
                 });
}

void LaplacianOp::fill_diagonal(Vec& d) const {
    const DMDA& da = *dmda_;
    const GridBox& o = da.owned();
    const double diag_val = 2.0 * da.dim() * inv_h2_;
    double* out = d.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                out[at] = da.on_boundary(i, j, k) ? 1.0 : diag_val;
            }
        }
    }
}

void assemble_laplacian(MatAIJ& mat, const DMDA& dmda) {
    NNCOMM_CHECK_MSG(dmda.dof() == 1, "assemble_laplacian: dof must be 1");
    const GridBox& o = dmda.owned();
    const GridSize g = dmda.grid();
    const int dim = dmda.dim();
    const double h = 1.0 / static_cast<double>(g.m - 1);
    const double inv_h2 = 1.0 / (h * h);

    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                const Index row = dmda.global_index(i, j, k);
                if (dmda.on_boundary(i, j, k)) {
                    mat.set_value(row, row, 1.0);
                    continue;
                }
                mat.set_value(row, row, 2.0 * dim * inv_h2);
                auto couple = [&](Index ni, Index nj, Index nk) {
                    if (!dmda.on_boundary(ni, nj, nk)) {
                        mat.set_value(row, dmda.global_index(ni, nj, nk), -inv_h2);
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

void fill_rhs_constant(const DMDA& dmda, Vec& b, double value) {
    const GridBox& o = dmda.owned();
    double* out = b.data();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                out[at] = dmda.on_boundary(i, j, k) ? 0.0 : value;
            }
        }
    }
}

}  // namespace nncomm::pk
