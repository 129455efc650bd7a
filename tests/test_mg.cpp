// Tests for the geometric multigrid solver: hierarchy construction,
// V-cycle contraction, full solves in 1/2/3-D, backend equivalence, pinned
// bits and caller storage across smoother and cycle variants, use as the
// paper's §5.5 application (3-D Laplacian, three levels), and the
// PatchGather transfers planned from each rank's own patch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "petsckit/mg.hpp"

namespace {

using namespace nncomm;
using pk::GridSize;
using pk::Index;
using pk::MGConfig;
using pk::MGSolver;
using pk::ScatterBackend;
using pk::Vec;
using rt::Comm;
using rt::World;

double residual_norm(const pk::LaplacianOp& A, const Vec& b, const Vec& x) {
    Vec r = b.clone_empty(), Ax = b.clone_empty();
    A.apply(x, Ax);
    r.waxpy_diff(b, Ax);
    return r.norm2();
}

TEST(Mg, HierarchyGridSizes) {
    World w(2);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 3;
        MGSolver mg(c, 2, GridSize{17, 17, 1}, cfg);
        EXPECT_EQ(mg.num_levels(), 3);
        EXPECT_EQ(mg.fine_dmda().grid().m, 17);
        // 17 -> 9 -> 5 (vertex-centered coarsening).
    });
}

TEST(Mg, RejectsNonCoarsenableGrid) {
    World w(1);
    EXPECT_THROW(w.run([](Comm& c) {
                     MGConfig cfg;
                     cfg.levels = 2;
                     MGSolver mg(c, 1, GridSize{16, 1, 1}, cfg);  // even extent
                 }),
                 nncomm::Error);
}

TEST(Mg, VcycleContractsResidual1D) {
    World w(2);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 3;
        MGSolver mg(c, 1, GridSize{65, 1, 1}, cfg);
        Vec b = mg.fine_dmda().create_global();
        pk::fill_rhs_constant(mg.fine_dmda(), b);
        Vec x = b.clone_empty();
        double prev = residual_norm(mg.fine_op(), b, x);
        for (int cycle = 0; cycle < 4; ++cycle) {
            mg.v_cycle(b, x);
            const double now = residual_norm(mg.fine_op(), b, x);
            EXPECT_LT(now, 0.35 * prev) << "cycle " << cycle;
            prev = now;
        }
    });
}

TEST(Mg, VcycleContractsResidual2D) {
    World w(4);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 3;
        MGSolver mg(c, 2, GridSize{33, 33, 1}, cfg);
        Vec b = mg.fine_dmda().create_global();
        pk::fill_rhs_constant(mg.fine_dmda(), b);
        Vec x = b.clone_empty();
        double prev = residual_norm(mg.fine_op(), b, x);
        for (int cycle = 0; cycle < 4; ++cycle) {
            mg.v_cycle(b, x);
            const double now = residual_norm(mg.fine_op(), b, x);
            EXPECT_LT(now, 0.5 * prev) << "cycle " << cycle;
            prev = now;
        }
    });
}

TEST(Mg, SolveMatchesCgSolution3D) {
    // The paper's application shape: 3-D Laplacian, one dof, three levels.
    World w(8);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 3;
        MGSolver mg(c, 3, GridSize{17, 17, 17}, cfg);
        const auto& da = mg.fine_dmda();
        Vec b = da.create_global();
        pk::fill_rhs_constant(da, b);

        Vec x_mg = b.clone_empty();
        auto mg_res = mg.solve(b, x_mg, 1e-9, 30);
        EXPECT_TRUE(mg_res.converged);
        // Damped-Jacobi 3-D V-cycles contract by ~0.3-0.4; 1e-9 needs ~19.
        EXPECT_LT(mg_res.iterations, 25);

        Vec x_cg = b.clone_empty();
        auto cg_res = pk::cg(mg.fine_op(), b, x_cg, pk::KspConfig{1e-11, 1e-50, 5000});
        EXPECT_TRUE(cg_res.converged);

        // Same linear system => same solution.
        Vec diff = b.clone_empty();
        diff.waxpy_diff(x_mg, x_cg);
        EXPECT_LT(diff.norm_inf(), 1e-6 * std::max(1.0, x_cg.norm_inf()));
    });
}

TEST(Mg, AllScatterBackendsGiveSameAnswer) {
    World w(4);
    Vec reference;
    std::vector<double> ref_vals;
    for (auto backend : {ScatterBackend::HandTuned, ScatterBackend::DatatypeBaseline,
                         ScatterBackend::DatatypeOptimized}) {
        std::vector<double> vals;
        std::mutex mu;
        w.run([&](Comm& c) {
            MGConfig cfg;
            cfg.levels = 2;
            cfg.scatter_backend = backend;
            cfg.coll.alltoallw_algo = (backend == ScatterBackend::DatatypeBaseline)
                                          ? coll::AlltoallwAlgo::RoundRobin
                                          : coll::AlltoallwAlgo::Binned;
            MGSolver mg(c, 2, GridSize{17, 17, 1}, cfg);
            Vec b = mg.fine_dmda().create_global();
            pk::fill_rhs_constant(mg.fine_dmda(), b);
            Vec x = b.clone_empty();
            for (int cycle = 0; cycle < 3; ++cycle) mg.v_cycle(b, x);
            std::lock_guard<std::mutex> lk(mu);
            for (double v : x.local()) vals.push_back(v);
        });
        // Thread completion order can permute rank contributions; sort for
        // a stable multiset comparison.
        std::sort(vals.begin(), vals.end());
        if (ref_vals.empty()) {
            ref_vals = vals;
        } else {
            ASSERT_EQ(vals.size(), ref_vals.size());
            for (std::size_t i = 0; i < vals.size(); ++i) {
                EXPECT_NEAR(vals[i], ref_vals[i], 1e-12) << pk::scatter_backend_name(backend);
            }
        }
    }
}

// With one level a V-cycle is the coarsest-level direct solve alone, so
// one cycle solves the system.
TEST(Mg, SingleLevelFallsBackToCoarseSolver) {
    World w(2);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 1;
        MGSolver mg(c, 1, GridSize{33, 1, 1}, cfg);
        Vec b = mg.fine_dmda().create_global();
        pk::fill_rhs_constant(mg.fine_dmda(), b);
        Vec x = b.clone_empty();
        auto res = mg.solve(b, x, 1e-8, 5);
        EXPECT_TRUE(res.converged);
        EXPECT_EQ(res.iterations, 1);
    });
}

TEST(Mg, WorksAtManyRankCounts) {
    for (int n : {1, 2, 3, 4, 6}) {
        World w(n);
        w.run([&](Comm& c) {
            MGConfig cfg;
            cfg.levels = 2;
            MGSolver mg(c, 2, GridSize{17, 17, 1}, cfg);
            Vec b = mg.fine_dmda().create_global();
            pk::fill_rhs_constant(mg.fine_dmda(), b);
            Vec x = b.clone_empty();
            auto res = mg.solve(b, x, 1e-8, 30);
            EXPECT_TRUE(res.converged) << "nranks=" << n;
        });
    }
}

TEST(Mg, ZeroRhsGivesZeroSolution) {
    World w(2);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 2;
        MGSolver mg(c, 2, GridSize{9, 9, 1}, cfg);
        Vec b = mg.fine_dmda().create_global();
        Vec x = b.clone_empty();
        auto res = mg.solve(b, x, 1e-10, 5);
        EXPECT_TRUE(res.converged);
        EXPECT_DOUBLE_EQ(x.norm_inf(), 0.0);
    });
}

// FNV-1a over the bytes of `v`.
std::uint64_t fnv1a(const std::vector<double>& v) {
    std::uint64_t h = 1469598103934665603ull;
    for (double d : v) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &d, sizeof d);
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
    return h;
}

// The pinned cases: two 3-level V-cycles per grid and rank count.
struct PinCase {
    int dim;
    GridSize g;
    int nranks;
    std::uint64_t hash;
};
const PinCase kPinCases[] = {
    {1, GridSize{65, 1, 1}, 1, 0x95f1dfc081f59b57ull},
    {1, GridSize{65, 1, 1}, 3, 0x95f1dfc081f59b57ull},
    {1, GridSize{65, 1, 1}, 4, 0x95f1dfc081f59b57ull},
    {2, GridSize{33, 17, 1}, 1, 0xaca61d12c71c3c64ull},
    {2, GridSize{33, 17, 1}, 3, 0x24bf66e6371dac9cull},
    {2, GridSize{33, 17, 1}, 4, 0x3d91bd21d8634c47ull},
    {3, GridSize{17, 17, 9}, 1, 0x9c8c667aa55ec5fcull},
    {3, GridSize{17, 17, 9}, 3, 0xab742c67a4484aa6ull},
    {3, GridSize{17, 17, 9}, 4, 0xfadd8e275ecd9bc8ull},
    // 33³ on a 1x2x3 process grid (no x neighbour; the middle z ranks have
    // neighbours on both z faces) and on 2x2x2 (px > 1, fine-box xs = 17).
    {3, GridSize{33, 33, 33}, 6, 0xca0de0478ea660ddull},
    {3, GridSize{33, 33, 33}, 8, 0x0a30875dca93e50aull},
};

// FNV-1a hash of x (global vector order) after two 3-level V-cycles from a
// zero guess. The right-hand side is non-zero on Dirichlet points too, so
// x's boundary values move and the dropped stencil couplings and the
// restriction's boundary reads are exercised.
std::uint64_t two_vcycles_hash(const PinCase& tc) {
    World w(tc.nranks);
    std::vector<double> global(static_cast<std::size_t>(tc.g.m * tc.g.n * tc.g.p));
    w.run([&](Comm& c) {
        MGConfig cfg;
        cfg.levels = 3;
        MGSolver mg(c, tc.dim, tc.g, cfg);
        Vec b = mg.fine_dmda().create_global();
        for (Index gi = b.range().begin; gi < b.range().end; ++gi) {
            b.at_global(gi) = 1.0 + static_cast<double>((gi * 7919) % 1013) / 1024.0;
        }
        Vec x = b.clone_empty();
        mg.v_cycle(b, x);
        mg.v_cycle(b, x);
        std::copy(x.local().begin(), x.local().end(),
                  global.begin() + static_cast<std::ptrdiff_t>(x.range().begin));
    });
    return fnv1a(global);
}

// Pins the exact bits of two V-cycles (smoother stencil, full-weighting
// restriction, trilinear prolongation, redundant direct coarse solve) per
// grid and rank count. The transfers are private to MGSolver, so the pin
// goes through v_cycle. Any change to the floating-point operation order
// of the kernels changes these hashes. No step of this V-cycle reduces
// across ranks, so x is the same on every decomposition: in 1-D, where
// global vector order is grid order, the three hashes agree.
TEST(Mg, TwoVcyclesAreBitPinned) {
    for (const PinCase& tc : kPinCases) {
        const std::uint64_t got = two_vcycles_hash(tc);
        EXPECT_EQ(got, tc.hash) << "dim=" << tc.dim << " nranks=" << tc.nranks << " got 0x"
                                << std::hex << got;
    }
}

// Smoother and cycle variants of two 3-level cycles from a non-zero guess:
// an odd level-0 Jacobi sweep count (the iterate ends a cycle in the
// level's other vector), no pre-smoothing, the Chebyshev smoother (which
// updates x in place) and a W-cycle. The hashes were recorded from the
// unfused smoother (apply, waxpy_diff and a separate update loop, with
// v_cycle copying b and x in and x out).
struct CycleCase {
    const char* name;
    int pre_smooth, post_smooth;
    pk::Smoother smoother;
    pk::CycleType cycle_type;
    std::uint64_t hash_2d, hash_3d;  ///< 33x17 on 4 ranks, 17x17x9 on 3 ranks
};
const CycleCase kCycleCases[] = {
    {"pre1post2", 1, 2, pk::Smoother::Jacobi, pk::CycleType::V, 0xfa3c88f00a4c060eull,
     0xc1d3899abe2ccd6dull},
    {"pre0", 0, 2, pk::Smoother::Jacobi, pk::CycleType::V, 0xc5115e9ada18f662ull,
     0xfa3ecd0065608920ull},
    {"chebyshev", 2, 2, pk::Smoother::Chebyshev, pk::CycleType::V, 0xd4da84c65c4801feull,
     0x9bb12abeeb73bee3ull},
    {"wcycle", 2, 2, pk::Smoother::Jacobi, pk::CycleType::W, 0x594d7ee3345e50bcull,
     0xaee97a7fd396047eull},
};

// v_cycle reads b in place and updates x in x's own storage: x.data() is
// the same pointer after every cycle, b is untouched, and the bits match
// the unfused reference.
TEST(Mg, VcycleKeepsCallerStorageAndPinnedBits) {
    const struct {
        int dim;
        GridSize g;
        int nranks;
    } grids[] = {{2, GridSize{33, 17, 1}, 4}, {3, GridSize{17, 17, 9}, 3}};
    for (const CycleCase& tc : kCycleCases) {
        for (const auto& grid : grids) {
            const GridSize g = grid.g;
            World w(grid.nranks);
            std::vector<double> global(static_cast<std::size_t>(g.m * g.n * g.p));
            w.run([&](Comm& c) {
                MGConfig cfg;
                cfg.levels = 3;
                cfg.pre_smooth = tc.pre_smooth;
                cfg.post_smooth = tc.post_smooth;
                cfg.smoother = tc.smoother;
                cfg.cycle_type = tc.cycle_type;
                MGSolver mg(c, grid.dim, g, cfg);
                Vec b = mg.fine_dmda().create_global();
                Vec x = b.clone_empty();
                for (Index gi = b.range().begin; gi < b.range().end; ++gi) {
                    b.at_global(gi) = 1.0 + static_cast<double>((gi * 7919) % 1013) / 1024.0;
                    x.at_global(gi) = static_cast<double>((gi * 104729) % 2003) / 4096.0;
                }
                Vec b_before = b.clone_empty();
                b_before.copy_from(b);
                const double* storage = x.data();
                for (int cycle = 0; cycle < 2; ++cycle) {
                    mg.v_cycle(b, x);
                    EXPECT_EQ(x.data(), storage) << tc.name << " cycle " << cycle;
                }
                EXPECT_EQ(std::memcmp(b.data(), b_before.data(),
                                      static_cast<std::size_t>(b.local_size()) * sizeof(double)),
                          0)
                    << tc.name;
                std::copy(x.local().begin(), x.local().end(),
                          global.begin() + static_cast<std::ptrdiff_t>(x.range().begin));
            });
            const std::uint64_t got = fnv1a(global);
            EXPECT_EQ(got, grid.dim == 2 ? tc.hash_2d : tc.hash_3d)
                << tc.name << " dim=" << grid.dim << " got 0x" << std::hex << got;
        }
    }
}

// v_cycle(b, b) would iterate on the right-hand side it reads: rejected
// with a message before any communication.
TEST(Mg, VcycleRejectsAliasedRhsAndIterate) {
    World w(2);
    std::string message;
    std::mutex mu;
    w.run([&](Comm& c) {
        MGConfig cfg;
        cfg.levels = 2;
        MGSolver mg(c, 2, GridSize{17, 17, 1}, cfg);
        Vec b = mg.fine_dmda().create_global();
        pk::fill_rhs_constant(mg.fine_dmda(), b);
        try {
            mg.v_cycle(b, b);
        } catch (const nncomm::Error& e) {
            std::lock_guard<std::mutex> lk(mu);
            message = e.what();
        }
        // The solver is still usable afterwards.
        Vec x = b.clone_empty();
        mg.v_cycle(b, x);
        EXPECT_GT(x.norm_inf(), 0.0);
    });
    EXPECT_NE(message.find("b and x must be different vectors"), std::string::npos) << message;
}

// A full-mantissa value per global grid point: (i, j, k) -> [0.5, 1.5).
double full_mantissa(Index i, Index j, Index k) {
    std::uint64_t z = static_cast<std::uint64_t>((k * 1000 + j) * 1000 + i) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return 0.5 + static_cast<double>(z >> 11) * 0x1.0p-53;
}

// Runs one single-level V-cycle (= one coarsest-level solve) on `nranks` ranks, b = full_mantissa everywhere including
// the boundary. `check(mg, b, x)` runs on every rank.
template <typename Check>
void single_level_solve(int dim, GridSize g, int nranks, Check check) {
    World w(nranks);
    w.run([&](Comm& c) {
        MGConfig cfg;
        cfg.levels = 1;
        MGSolver mg(c, dim, g, cfg);
        const pk::DMDA& da = mg.fine_dmda();
        const pk::GridBox& o = da.owned();
        Vec b = da.create_global();
        std::size_t at = 0;
        for (Index k = o.zs; k < o.zs + o.zm; ++k) {
            for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                for (Index i = o.xs; i < o.xs + o.xm; ++i) b.data()[at++] = full_mantissa(i, j, k);
            }
        }
        Vec x = b.clone_empty();
        mg.v_cycle(b, x);
        check(mg, b, x);
    });
}

const struct {
    int dim;
    GridSize g;
} kCoarseGrids[] = {{1, GridSize{33, 1, 1}}, {2, GridSize{17, 13, 1}}, {3, GridSize{9, 9, 9}}};

// The redundant direct solve is exact to rounding: ||b - A x|| <= 1e-12 ||b||
// and the Dirichlet rows copy b bit for bit, on every rank count including
// uneven splits.
TEST(Mg, RedundantCoarseSolveIsExact) {
    for (const auto& grid : kCoarseGrids) {
        for (int n = 1; n <= 7; ++n) {
            single_level_solve(grid.dim, grid.g, n, [&](MGSolver& mg, const Vec& b, const Vec& x) {
                const double bn = b.norm2();
                const double rn = residual_norm(mg.fine_op(), b, x);
                EXPECT_LE(rn, 1e-12 * bn) << "dim=" << grid.dim << " nranks=" << n;
                const pk::DMDA& da = mg.fine_dmda();
                const pk::GridBox& o = da.owned();
                std::size_t at = 0;
                for (Index k = o.zs; k < o.zs + o.zm; ++k) {
                    for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                        for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                            if (!da.on_boundary(i, j, k)) continue;
                            EXPECT_EQ(std::memcmp(&x.data()[at], &b.data()[at], sizeof(double)), 0)
                                << "dim=" << grid.dim << " nranks=" << n << " at (" << i << ","
                                << j << "," << k << ")";
                        }
                    }
                }
            });
        }
    }
}

// Every rank solves the same gathered system with the same factor, so the
// solution (in natural grid order) is bit-identical on any decomposition.
TEST(Mg, RedundantCoarseSolveIgnoresDecomposition) {
    for (const auto& grid : kCoarseGrids) {
        const GridSize g = grid.g;
        std::vector<double> reference;
        for (int n : {1, 2, 3, 4, 6}) {
            std::vector<double> natural(static_cast<std::size_t>(g.m * g.n * g.p));
            single_level_solve(grid.dim, g, n, [&](MGSolver& mg, const Vec&, const Vec& x) {
                const pk::GridBox& o = mg.fine_dmda().owned();
                std::size_t at = 0;
                for (Index k = o.zs; k < o.zs + o.zm; ++k) {
                    for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                        for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                            natural[static_cast<std::size_t>((k * g.n + j) * g.m + i)] =
                                x.data()[at++];
                        }
                    }
                }
            });
            if (reference.empty()) {
                reference = natural;
                continue;
            }
            EXPECT_EQ(std::memcmp(natural.data(), reference.data(),
                                  natural.size() * sizeof(double)),
                      0)
                << "dim=" << grid.dim << " nranks=" << n;
        }
    }
}

// The coarsest-level solve refuses a band factor above its cap instead of
// building it; one more level brings the same fine grid under the cap.
TEST(Mg, RedundantCoarseSolveRejectsTooLargeGrid) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     MGConfig cfg;
                     cfg.levels = 1;
                     MGSolver mg(c, 3, GridSize{33, 33, 33}, cfg);  // 31³ unknowns, 219 MiB
                 }),
                 nncomm::Error);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 2;
        MGSolver mg(c, 3, GridSize{33, 33, 33}, cfg);  // 17³ coarsest: 15³ unknowns, 6 MiB
        EXPECT_EQ(mg.num_levels(), 2);
    });
}

// ---------------------------------------------------------------------------
// PatchGather: each rank plans from its own patch

struct PatchCase {
    int dim;
    GridSize size;
    int nranks;
};

// 1-8 ranks with uneven splits: odd extents (65, 9) over 3, 5, 6 and 7
// ranks among them.
constexpr PatchCase kPatchCases[] = {
    {1, {65, 1, 1}, 1}, {1, {65, 1, 1}, 3}, {1, {65, 1, 1}, 7}, {2, {65, 9, 1}, 2},
    {2, {65, 9, 1}, 5}, {2, {9, 9, 1}, 6},  {3, {9, 9, 9}, 4},  {3, {65, 9, 9}, 6},
    {3, {9, 9, 9}, 7},  {3, {9, 9, 9}, 8},
};

constexpr ScatterBackend kPatchBackends[] = {ScatterBackend::HandTuned,
                                             ScatterBackend::DatatypeBaseline,
                                             ScatterBackend::DatatypeOptimized};

// Rank r's patch, computable on every rank: a seeded random box, except
// that rank 0 takes whole x-rows (so its rows cross every owner's x-range)
// and the last rank of a multi-rank run takes nothing.
pk::GridBox patch_of(const PatchCase& tc, int r) {
    pk::GridBox b;
    if (tc.nranks > 1 && r == tc.nranks - 1) {
        b.xm = 0;
        return b;
    }
    Rng rng(static_cast<std::uint64_t>(100 * tc.nranks + 10 * tc.dim + r));
    auto axis = [&](Index extent, Index& s, Index& m) {
        s = rng.uniform_i64(0, extent - 1);
        m = rng.uniform_i64(1, extent - s);
    };
    axis(tc.size.m, b.xs, b.xm);
    axis(tc.size.n, b.ys, b.ym);
    axis(tc.size.p, b.zs, b.zm);
    if (r == 0) {
        b.xs = 0;
        b.xm = tc.size.m;
    }
    return b;
}

// The value the source vector holds at grid point (i, j, k): exact in a
// double and distinct per point.
double point_value(Index i, Index j, Index k) {
    return static_cast<double>(i + 1000 * j + 1000000 * k);
}

// The own-patch plan must equal, peer by peer, the plan of a replicated
// VecScatter built here from every rank's full patch list, one
// global_index per point: an oracle that shares none of PatchGather's
// planning path.
TEST(PatchGather, OwnPatchPlanMatchesReplicatedIndexLists) {
    for (const PatchCase& tc : kPatchCases) {
        World w(tc.nranks);
        w.run([&](Comm& c) {
            pk::DMDA da(c, tc.dim, tc.size, 1, 1, pk::Stencil::Star);
            pk::PatchGather pg(da, patch_of(tc, c.rank()));

            std::vector<Index> all, counts;
            for (int r = 0; r < c.size(); ++r) {
                const pk::GridBox b = patch_of(tc, r);
                counts.push_back(b.volume());
                for (Index k = b.zs; k < b.zs + b.zm; ++k) {
                    for (Index j = b.ys; j < b.ys + b.ym; ++j) {
                        for (Index i = b.xs; i < b.xs + b.xm; ++i) {
                            all.push_back(da.global_index(i, j, k));
                        }
                    }
                }
            }
            const auto total = static_cast<Index>(all.size());
            pk::VecScatter repl(c, *da.layout(), pk::IndexSet::general(std::move(all)),
                                pk::Layout::from_counts(counts),
                                pk::IndexSet::identity(total));

            const pk::VecScatter& own = pg.scatter();
            const std::string where = "dim " + std::to_string(tc.dim) + ", " +
                                      std::to_string(tc.nranks) + " ranks, rank " +
                                      std::to_string(c.rank());
            EXPECT_EQ(own.send_bytes(), repl.send_bytes()) << where;
            EXPECT_EQ(own.send_blocks(), repl.send_blocks()) << where;
            EXPECT_EQ(own.local_moves(), repl.local_moves()) << where;
        });
    }
}

// Every backend gathers what a direct read of the global vector gives:
// the source holds point_value at each grid point (filled through the owned
// box, not global_index), and values() must list the patch's points x
// fastest. The empty patch gathers nothing.
TEST(PatchGather, GatheredValuesEqualTheGlobalVector) {
    for (const PatchCase& tc : kPatchCases) {
        World w(tc.nranks);
        w.run([&](Comm& c) {
            pk::DMDA da(c, tc.dim, tc.size, 1, 1, pk::Stencil::Star);
            const pk::GridBox mine = patch_of(tc, c.rank());
            pk::PatchGather pg(da, mine);

            Vec src = da.create_global();
            const pk::GridBox& o = da.owned();
            double* s = src.data();
            for (Index k = o.zs; k < o.zs + o.zm; ++k) {
                for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                    for (Index i = o.xs; i < o.xs + o.xm; ++i) *s++ = point_value(i, j, k);
                }
            }

            // Every rank runs every gather, mismatch or not: a rank that left
            // the loop early would strand its peers in the next collective.
            for (ScatterBackend backend : kPatchBackends) {
                pg.gather(src, backend);
                const auto v = pg.values();
                EXPECT_EQ(static_cast<Index>(v.size()), mine.volume());
                if (static_cast<Index>(v.size()) != mine.volume()) continue;
                std::size_t t = 0, wrong = 0;
                std::string first;
                for (Index k = mine.zs; k < mine.zs + mine.zm; ++k) {
                    for (Index j = mine.ys; j < mine.ys + mine.ym; ++j) {
                        for (Index i = mine.xs; i < mine.xs + mine.xm; ++i, ++t) {
                            if (v[t] == point_value(i, j, k)) continue;
                            if (wrong++ == 0) {
                                first = "(" + std::to_string(i) + ", " + std::to_string(j) +
                                        ", " + std::to_string(k) + ")";
                            }
                        }
                    }
                }
                EXPECT_EQ(wrong, 0u) << pk::scatter_backend_name(backend) << ", dim "
                                     << tc.dim << ", " << tc.nranks << " ranks, rank "
                                     << c.rank() << ", first wrong point " << first;
            }
        });
    }
}

}  // namespace
