#include "petsckit/mg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace nncomm::pk {

namespace {

/// Coarse extent of one axis (m_fine = 2*m_coarse - 1), identity for
/// inactive axes (m == 1).
Index coarsen_extent(Index m) {
    if (m == 1) return 1;
    NNCOMM_CHECK_MSG(m >= 3 && (m % 2) == 1,
                     "MGSolver: grid extent must be odd and >= 3 to coarsen (m = 2*mc - 1)");
    return (m + 1) / 2;
}

/// The fine points full weighting reads for the coarse box `co`: [2I-1,
/// 2I+1] around every coarse I along each active axis, clamped to the fine
/// grid `fg`.
GridBox restriction_reach(const GridBox& co, GridSize fg) {
    auto axis = [](Index cs, Index cm, Index fm, Index& s, Index& m) {
        if (fm == 1) {
            s = 0, m = 1;
            return;
        }
        s = std::max<Index>(0, 2 * cs - 1);
        m = std::min<Index>(fm - 1, 2 * (cs + cm - 1) + 1) - s + 1;
    };
    GridBox r;
    axis(co.xs, co.xm, fg.m, r.xs, r.xm);
    axis(co.ys, co.ym, fg.n, r.ys, r.ym);
    axis(co.zs, co.zm, fg.p, r.zs, r.zm);
    return r;
}

/// The coarse points linear interpolation reads for the fine box `fo`:
/// [floor(i/2), floor((i+1)/2)] around every fine i along each active axis,
/// clamped to the coarse grid `cg`.
GridBox prolongation_reach(const GridBox& fo, GridSize cg) {
    auto axis = [](Index fs, Index fm, Index cm, Index& s, Index& m) {
        if (cm == 1) {
            s = 0, m = 1;
            return;
        }
        s = fs / 2;
        m = std::min<Index>(cm - 1, (fs + fm) / 2) - s + 1;
    };
    GridBox r;
    axis(fo.xs, fo.xm, cg.m, r.xs, r.xm);
    axis(fo.ys, fo.ym, cg.n, r.ys, r.ym);
    axis(fo.zs, fo.zm, cg.p, r.zs, r.zm);
    return r;
}

/// The fine rows one coarse row's full weighting reads (dz outer, then
/// dy): each row's offset from the fine center row and its weights for
/// dx = -1, 0, 1.
struct FineTaps {
    Index off[9];
    double w[9][3];
};

/// Full weighting of coarse points [0, n) of one row: dst[q] sums, over
/// the first NT taps in order, w[0..2] times the fine points 2q-1, 2q and
/// 2q+1 of the tap's row, with f the fine center of q = 0. Every lane
/// performs the scalar sequence acc = 0, acc += w·v per read, so vector
/// lanes produce the scalar bits. The transfer kernels unroll their tap
/// loops by pragma: GCC vectorizes only an innermost loop, and -O2's
/// complete unrolling stops short of 9 taps.
template <int NT>
void restrict_row(double* __restrict dst, const double* __restrict f, const FineTaps& taps,
                  Index n) {
    Index off[NT];
    double w[NT][3];
    for (int t = 0; t < NT; ++t) {
        off[t] = taps.off[t];
        for (int a = 0; a < 3; ++a) w[t][a] = taps.w[t][a];
    }
    for (Index q = 0; q < n; ++q) {
        double acc = 0.0;
#pragma GCC unroll 9
        for (int t = 0; t < NT; ++t) {
            const double* r = f + off[t] + 2 * q;
            acc += w[t][0] * r[-1];
            acc += w[t][1] * r[0];
            acc += w[t][2] * r[1];
        }
        dst[q] = acc;
    }
}

/// The coarse rows one fine row's interpolation reads (az outer, then ay;
/// zero weights skipped): each row's offset in the patch and its weight
/// wz·wy·wx for an even (wx = 1) and an odd (wx = 1/2) fine point.
struct CoarseRows {
    Index off[4];
    double w_even[4], w_odd[4];
};

/// Adds the interpolated correction to fine points [xs, xe) of one row
/// (dst[0] is fine point xs). Fine i = 2c reads coarse column c, i = 2c+1
/// reads c and c+1 in that order (c in patch x coordinates, patch x
/// origin pxs). Whole even/odd pairs run as one loop over coarse columns,
/// each lane in the scalar operation order; a leading odd and a trailing
/// even point are peeled.
template <int NR>
void prolong_row(double* __restrict dst, const double* __restrict v, const CoarseRows& rows,
                 Index xs, Index xe, Index pxs) {
    Index off[NR];
    double we[NR], wo[NR];
    for (int r = 0; r < NR; ++r) {
        off[r] = rows.off[r];
        we[r] = rows.w_even[r];
        wo[r] = rows.w_odd[r];
    }
    auto even = [&](Index c) {
        double acc = 0.0;
#pragma GCC unroll 4
        for (int r = 0; r < NR; ++r) acc += we[r] * v[off[r] + c];
        return acc;
    };
    auto odd = [&](Index c) {
        double acc = 0.0;
#pragma GCC unroll 4
        for (int r = 0; r < NR; ++r) {
            acc += wo[r] * v[off[r] + c];
            acc += wo[r] * v[off[r] + c + 1];
        }
        return acc;
    };
    Index i = xs;
    if (i < xe && (i & 1) != 0) {
        dst[0] += odd((i - 1) / 2 - pxs);
        ++i;
    }
    const Index pairs = (xe - i) / 2;
    double* d = dst + (i - xs);
    const Index c0 = i / 2 - pxs;
    for (Index p = 0; p < pairs; ++p) {
        const double e = even(c0 + p);
        const double o = odd(c0 + p);
        d[2 * p] += e;
        d[2 * p + 1] += o;
    }
    i += 2 * pairs;
    if (i < xe) dst[i - xs] += even(i / 2 - pxs);
}

}  // namespace

/// The coarsest level's redundant direct solve (PETSc's PCREDUNDANT). Every
/// rank gathers the whole right-hand side with one allgatherv and solves
/// the whole system with the same banded Cholesky factor, built at setup,
/// so the result does not depend on the decomposition. Boundary rows are
/// identity (x_B = b_B) and interior couplings to them are dropped, so the
/// interior unknowns in natural order (x fastest) form an SPD band matrix:
/// 2d/h² on the diagonal and -1/h² at offsets 1, ni and ni*nj, with
/// half-bandwidth kd the offset of the outermost active axis.
class MGSolver::CoarseDirect {
public:
    /// Above this the band factor is refused rather than built (a 17³
    /// coarsest grid needs about 6 MiB, 33³ about 219 MiB).
    static constexpr std::size_t kMaxFactorBytes = std::size_t{16} << 20;

    CoarseDirect(const LaplacianOp& op, const coll::CollConfig& config)
        : da_(&op.dmda()), config_(config) {
        const DMDA& da = *da_;
        const GridSize g = da.grid();
        const int dim = da.dim();
        const double inv_h2 = 1.0 / (op.h() * op.h());  // LaplacianOp's scaling
        lo_ = {1, dim >= 2 ? Index{1} : Index{0}, dim >= 3 ? Index{1} : Index{0}};
        ni_ = std::max<Index>(0, g.m - 2 * lo_[0]);
        nj_ = std::max<Index>(0, g.n - 2 * lo_[1]);
        n_ = ni_ * nj_ * std::max<Index>(0, g.p - 2 * lo_[2]);
        kd_ = dim >= 3 ? ni_ * nj_ : (dim == 2 ? ni_ : 1);
        const std::size_t bytes =
            static_cast<std::size_t>(n_) * static_cast<std::size_t>(kd_ + 1) * sizeof(double);
        NNCOMM_CHECK_MSG(bytes <= kMaxFactorBytes,
                         "MGSolver: the coarsest grid is too large for the redundant direct "
                         "solve (band factor above 16 MiB per rank); use more levels");

        // Where each interior unknown lands in the gathered vector: rank r's
        // owned box, in box order, at displs[r].
        const auto nranks = static_cast<std::size_t>(da.comm().size());
        counts_.resize(nranks);
        displs_.resize(nranks);
        rhs_at_.resize(static_cast<std::size_t>(n_));
        std::size_t at = 0;
        for (std::size_t r = 0; r < nranks; ++r) {
            const GridBox b = da.owned_box_of(static_cast<int>(r));
            counts_[r] = static_cast<std::size_t>(b.volume());
            displs_[r] = at;
            for (Index k = b.zs; k < b.zs + b.zm; ++k) {
                for (Index j = b.ys; j < b.ys + b.ym; ++j) {
                    for (Index i = b.xs; i < b.xs + b.xm; ++i, ++at) {
                        if (!da.on_boundary(i, j, k)) rhs_at_[interior(i, j, k)] = at;
                    }
                }
            }
        }
        gathered_.resize(at);
        y_.resize(static_cast<std::size_t>(n_));

        // Row q of L holds L(q, q-kd .. q) at band_[q*(kd+1) ..]; A's entries
        // are written there first and factored in place, row by row.
        const auto w = static_cast<std::size_t>(kd_ + 1);
        band_.assign(static_cast<std::size_t>(n_) * w, 0.0);
        const Index offs[3] = {1, ni_, ni_ * nj_};
        for (Index q = 0; q < n_; ++q) {
            double* row = &band_[static_cast<std::size_t>(q) * w];
            row[kd_] = 2.0 * dim * inv_h2;
            const Index pos[3] = {q % ni_, (q / ni_) % nj_, q / (ni_ * nj_)};
            for (int a = 0; a < dim; ++a) {
                if (pos[a] > 0) row[kd_ - offs[a]] = -inv_h2;
            }
        }
        for (Index q = 0; q < n_; ++q) {
            double* lq = &band_[static_cast<std::size_t>(q) * w] + kd_ - q;  // lq[c] = L(q, c)
            const Index q0 = std::max<Index>(0, q - kd_);
            for (Index c = q0; c <= q; ++c) {
                const double* lc = &band_[static_cast<std::size_t>(c) * w] + kd_ - c;
                double s = lq[c];
                for (Index t = std::max(q0, c - kd_); t < c; ++t) s -= lq[t] * lc[t];
                if (c < q) {
                    lq[c] = s / lc[c];
                } else {
                    NNCOMM_CHECK_MSG(s > 0.0, "MGSolver: coarse matrix is not SPD");
                    lq[c] = std::sqrt(s);
                }
            }
        }
    }

    /// x = A⁻¹ b on the coarsest level. Collective (one allgatherv).
    void solve(const Vec& b, Vec& x) {
        coll::allgatherv(da_->comm(), b.data(), static_cast<std::size_t>(b.local_size()),
                         f64_, gathered_.data(), counts_, displs_, f64_, config_);
        const auto w = static_cast<std::size_t>(kd_ + 1);
        double* y = y_.data();
        for (Index q = 0; q < n_; ++q) y[q] = gathered_[rhs_at_[static_cast<std::size_t>(q)]];
        for (Index q = 0; q < n_; ++q) {  // L y = b
            const double* lq = &band_[static_cast<std::size_t>(q) * w] + kd_ - q;
            double s = y[q];
            for (Index t = std::max<Index>(0, q - kd_); t < q; ++t) s -= lq[t] * y[t];
            y[q] = s / lq[q];
        }
        for (Index q = n_ - 1; q >= 0; --q) {  // Lᵀ x = y, one column of Lᵀ at a time
            const double* lq = &band_[static_cast<std::size_t>(q) * w] + kd_ - q;
            y[q] /= lq[q];
            for (Index t = std::max<Index>(0, q - kd_); t < q; ++t) y[t] -= lq[t] * y[q];
        }

        const GridBox& o = da_->owned();
        const double* bd = b.data();
        double* xd = x.data();
        std::size_t at = 0;
        for (Index k = o.zs; k < o.zs + o.zm; ++k) {
            for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                    xd[at] = da_->on_boundary(i, j, k) ? bd[at] : y[interior(i, j, k)];
                }
            }
        }
    }

private:
    /// Natural-order index of interior point (i, j, k).
    std::size_t interior(Index i, Index j, Index k) const {
        return static_cast<std::size_t>(((k - lo_[2]) * nj_ + (j - lo_[1])) * ni_ + (i - lo_[0]));
    }

    const DMDA* da_;
    coll::CollConfig config_;
    dt::Datatype f64_ = dt::Datatype::float64();
    std::array<Index, 3> lo_{};  ///< first interior index per axis (0 if inactive)
    Index ni_ = 0, nj_ = 0;      ///< interior extents along x and y
    Index n_ = 0, kd_ = 0;       ///< unknowns, half-bandwidth
    std::vector<std::size_t> counts_, displs_;  ///< allgatherv layout (owned boxes)
    std::vector<std::size_t> rhs_at_;  ///< gathered position of each interior unknown
    std::vector<double> gathered_, y_, band_;
};

MGSolver::MGSolver(rt::Comm& comm, int dim, GridSize fine, const MGConfig& config)
    : config_(config) {
    NNCOMM_CHECK_MSG(config.levels >= 1, "MGSolver: need at least one level");

    GridSize g = fine;
    for (int l = 0; l < config.levels; ++l) {
        Level lvl;
        lvl.dmda = std::make_shared<const DMDA>(comm, dim, g, 1, 1, Stencil::Star);
        lvl.op = std::make_unique<LaplacianOp>(lvl.dmda, config.coll);
        lvl.r = lvl.dmda->create_global();
        // Level 0 reads the caller's b and borrows the caller's x.
        if (l > 0) {
            lvl.b = lvl.r.clone_empty();
            lvl.x = lvl.r.clone_empty();
        }
        // The coarsest level is solved, never smoothed: it needs no
        // Jacobi preconditioner or eigenvalue estimate. The Jacobi smoother
        // divides by the operator's own diagonal and needs neither.
        if (l + 1 < config.levels && config.smoother == Smoother::Chebyshev) {
            Vec d = lvl.r.clone_empty();
            lvl.op->fill_diagonal(d);
            lvl.jacobi = std::make_unique<JacobiPreconditioner>(std::move(d));
            lvl.lambda_max = estimate_max_eigenvalue(*lvl.op, lvl.r, config.cheby_power_iters,
                                                     lvl.jacobi.get());
        }
        levels_.push_back(std::move(lvl));
        if (l + 1 < config.levels) {
            g = GridSize{coarsen_extent(g.m), coarsen_extent(g.n), coarsen_extent(g.p)};
        }
    }

    // Transfer plans between consecutive levels: restriction gathers the
    // fine residual around this rank's coarse box, prolongation the coarse
    // correction around its fine box.
    for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
        const DMDA& fda = *levels_[l].dmda;
        const DMDA& cda = *levels_[l + 1].dmda;
        levels_[l].fine_patch =
            std::make_unique<PatchGather>(fda, restriction_reach(cda.owned(), fda.grid()));
        levels_[l].coarse_patch =
            std::make_unique<PatchGather>(cda, prolongation_reach(fda.owned(), cda.grid()));
    }
    coarse_direct_ = std::make_unique<CoarseDirect>(*levels_.back().op, config.coll);
}

MGSolver::MGSolver(MGSolver&&) noexcept = default;
MGSolver& MGSolver::operator=(MGSolver&&) noexcept = default;
MGSolver::~MGSolver() = default;

void MGSolver::smooth(Level& lvl, const Vec& b, int sweeps) {
    if (config_.smoother == Smoother::Chebyshev) {
        chebyshev(*lvl.op, b, lvl.x, config_.cheby_fraction_lo * lvl.lambda_max,
                  config_.cheby_fraction_hi * lvl.lambda_max, sweeps, lvl.jacobi.get());
        return;
    }
    // A sweep never writes its input (the ghost exchange reads it), so x
    // and r trade storage after each one.
    for (int s = 0; s < sweeps; ++s) {
        lvl.op->jacobi_sweep(b, config_.jacobi_omega, lvl.x, lvl.r);
        std::swap(lvl.x, lvl.r);
    }
}

void MGSolver::restrict_residual(std::size_t fine_level) {
    Level& fine = levels_[fine_level];
    Level& coarse = levels_[fine_level + 1];
    fine.fine_patch->gather(fine.r, config_.scatter_backend);

    const GridBox& pb = fine.fine_patch->patch();
    const double* v = fine.fine_patch->values().data();
    const DMDA& cda = *coarse.dmda;
    const GridBox& co = cda.owned();
    const GridSize cg = cda.grid();
    const int dim = cda.dim();
    // Every read below lies in the restriction reach of the coarse box;
    // this one check covers all of them.
    NNCOMM_CHECK_MSG(pb.covers(restriction_reach(co, fine.dmda->grid())),
                     "MGSolver: restriction patch does not cover its reads");

    // Full weighting: tensor product of [1/4, 1/2, 1/4] over active axes.
    // A coarse row reads 1, 3 or 9 fine rows (dz outer, then dy). Each
    // coarse point sums w * value in dz, dy, dx order. Interior coarse
    // points never read outside the fine grid, so no per-point domain test
    // is needed.
    auto w1d = [](int off) { return off == 0 ? 0.5 : 0.25; };
    const int zr = (dim >= 3) ? 1 : 0;
    const int yr = (dim >= 2) ? 1 : 0;
    FineTaps taps{};
    int ntaps = 0;
    for (int dz = -zr; dz <= zr; ++dz) {
        for (int dy = -yr; dy <= yr; ++dy, ++ntaps) {
            taps.off[ntaps] = (dz * pb.ym + dy) * pb.xm;
            for (int dx = -1; dx <= 1; ++dx) {
                double w = w1d(dx);
                if (dim >= 2) w *= w1d(dy);
                if (dim >= 3) w *= w1d(dz);
                taps.w[ntaps][dx + 1] = w;
            }
        }
    }

    // Coarse points I = 0 and I = mc-1 are Dirichlet points; [lo, hi) is
    // the rest of a row.
    const Index lo = std::clamp<Index>(1 - co.xs, 0, co.xm);
    const Index hi = std::clamp<Index>(cg.m - 1 - co.xs, lo, co.xm);
    double* out = coarse.b.data();
    for (Index K = co.zs; K < co.zs + co.zm; ++K) {
        for (Index J = co.ys; J < co.ys + co.ym; ++J) {
            double* dst = out + ((K - co.zs) * co.ym + (J - co.ys)) * co.xm;
            if (cda.row_on_boundary(J, K)) {
                // Dirichlet rows stay homogeneous on every level.
                std::fill(dst, dst + co.xm, 0.0);
                continue;
            }
            const Index fj = (dim >= 2) ? 2 * J : 0;
            const Index fk = (dim >= 3) ? 2 * K : 0;
            // The fine center of coarse point lo, in the patch.
            const double* f = v + ((fk - pb.zs) * pb.ym + (fj - pb.ys)) * pb.xm +
                              (2 * (co.xs + lo) - pb.xs);
            std::fill(dst, dst + lo, 0.0);
            switch (ntaps) {
                case 9: restrict_row<9>(dst + lo, f, taps, hi - lo); break;
                case 3: restrict_row<3>(dst + lo, f, taps, hi - lo); break;
                default: restrict_row<1>(dst + lo, f, taps, hi - lo); break;
            }
            std::fill(dst + hi, dst + co.xm, 0.0);
        }
    }
}

void MGSolver::prolong_and_correct(std::size_t fine_level) {
    Level& fine = levels_[fine_level];
    Level& coarse = levels_[fine_level + 1];
    fine.coarse_patch->gather(coarse.x, config_.scatter_backend);

    const GridBox& pb = fine.coarse_patch->patch();
    const double* v = fine.coarse_patch->values().data();
    const DMDA& fda = *fine.dmda;
    const GridBox& fo = fda.owned();
    const int dim = fda.dim();
    // Every read below lies in the prolongation reach of the fine box;
    // this one check covers all of them.
    NNCOMM_CHECK_MSG(pb.covers(prolongation_reach(fo, coarse.dmda->grid())),
                     "MGSolver: prolongation patch does not cover its reads");

    // Linear interpolation per axis: even fine index -> the coarse point,
    // odd -> the average of its two coarse neighbors.
    struct Interp {
        Index c0, c1;
        double w0, w1;
    };
    auto interp1d = [](Index i) -> Interp {
        if ((i & 1) == 0) return {i / 2, i / 2, 1.0, 0.0};
        return {(i - 1) / 2, (i + 1) / 2, 0.5, 0.5};
    };

    double* xd = fine.x.data();
    const Index ie = fo.xs + fo.xm;
    for (Index k = fo.zs; k < fo.zs + fo.zm; ++k) {
        const Interp iz = (dim >= 3) ? interp1d(k) : Interp{0, 0, 1.0, 0.0};
        for (Index j = fo.ys; j < fo.ys + fo.ym; ++j) {
            const Interp iy = (dim >= 2) ? interp1d(j) : Interp{0, 0, 1.0, 0.0};
            CoarseRows rows{};
            int nrows = 0;
            for (int az = 0; az < 2; ++az) {
                const double wz = az == 0 ? iz.w0 : iz.w1;
                if (wz == 0.0) continue;
                const Index K = az == 0 ? iz.c0 : iz.c1;
                for (int ay = 0; ay < 2; ++ay) {
                    const double wy = ay == 0 ? iy.w0 : iy.w1;
                    if (wy == 0.0) continue;
                    const Index J = ay == 0 ? iy.c0 : iy.c1;
                    rows.off[nrows] = ((K - pb.zs) * pb.ym + (J - pb.ys)) * pb.xm;
                    rows.w_even[nrows] = wz * wy;
                    rows.w_odd[nrows] = wz * wy * 0.5;
                    ++nrows;
                }
            }
            double* dst = xd + ((k - fo.zs) * fo.ym + (j - fo.ys)) * fo.xm;
            switch (nrows) {
                case 4: prolong_row<4>(dst, v, rows, fo.xs, ie, pb.xs); break;
                case 2: prolong_row<2>(dst, v, rows, fo.xs, ie, pb.xs); break;
                default: prolong_row<1>(dst, v, rows, fo.xs, ie, pb.xs); break;
            }
        }
    }
}

void MGSolver::cycle(std::size_t l, const Vec& b) {
    // Improves levels_[l].x for the right-hand side b (the caller has
    // initialized x — zero for correction levels, the iterate on level 0).
    Level& lvl = levels_[l];
    if (l + 1 == levels_.size()) {
        coarse_direct_->solve(b, lvl.x);
        return;
    }
    smooth(lvl, b, config_.pre_smooth);
    lvl.op->residual(b, lvl.x, lvl.r);
    restrict_residual(l);
    // gamma recursive corrections: one for a V-cycle, two for a W-cycle
    // (the second pass continues improving the same coarse solution). The
    // coarsest level's direct solve is exact and ignores its starting x, so
    // a second pass there would repeat the same bits: one is enough.
    levels_[l + 1].x.zero();
    const bool next_is_coarsest = l + 2 == levels_.size();
    const int gamma = (config_.cycle_type == CycleType::W && !next_is_coarsest) ? 2 : 1;
    for (int g = 0; g < gamma; ++g) cycle(l + 1, levels_[l + 1].b);
    prolong_and_correct(l);
    smooth(lvl, b, config_.post_smooth);
}

void MGSolver::v_cycle(const Vec& b, Vec& x) {
    Level& top = levels_[0];
    NNCOMM_CHECK_MSG(&b != &x, "MGSolver::v_cycle: b and x must be different vectors");
    NNCOMM_CHECK_MSG(x.local_size() == top.r.local_size() && b.local_size() == top.r.local_size(),
                     "MGSolver::v_cycle: b and x must be vectors of the fine DMDA");
    // Level 0 iterates on the caller's storage: lent here, returned below.
    const double* const storage = x.data();
    std::swap(top.x, x);
    cycle(0, b);
    if (top.x.data() != storage) {  // an odd number of Jacobi sweeps left it in r
        top.r.copy_from(top.x);
        std::swap(top.x, top.r);
    }
    std::swap(top.x, x);
}

KspResult MGSolver::solve(const Vec& b, Vec& x, double rtol, int max_cycles) {
    Vec r = b.clone_empty();
    const LaplacianOp& A = *levels_[0].op;

    A.residual(b, x, r);
    const double r0 = r.norm2();
    KspResult result;
    result.residual_norm = r0;
    if (r0 == 0.0) {
        result.converged = true;
        return result;
    }
    for (int it = 1; it <= max_cycles; ++it) {
        v_cycle(b, x);
        A.residual(b, x, r);
        result.iterations = it;
        result.residual_norm = r.norm2();
        if (result.residual_norm <= rtol * r0) {
            result.converged = true;
            return result;
        }
    }
    return result;
}

}  // namespace nncomm::pk
