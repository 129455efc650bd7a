// Tests for the geometric multigrid solver: hierarchy construction,
// V-cycle contraction, full solves in 1/2/3-D, backend equivalence, and
// use as the paper's §5.5 application (3-D Laplacian, three levels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>

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

TEST(Mg, SingleLevelFallsBackToCoarseSolver) {
    World w(2);
    w.run([](Comm& c) {
        MGConfig cfg;
        cfg.levels = 1;
        cfg.coarse_solver = pk::KspConfig{1e-10, 1e-50, 2000};
        MGSolver mg(c, 1, GridSize{33, 1, 1}, cfg);
        Vec b = mg.fine_dmda().create_global();
        pk::fill_rhs_constant(mg.fine_dmda(), b);
        Vec x = b.clone_empty();
        auto res = mg.solve(b, x, 1e-8, 5);
        EXPECT_TRUE(res.converged);
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

// Pins the exact bits of two V-cycles (smoother stencil, full-weighting
// restriction, trilinear prolongation, coarse CG) per grid and rank count.
// The transfers are private to MGSolver, so the pin goes through v_cycle.
// The right-hand side is non-zero on Dirichlet points too, so x's boundary
// values move and the dropped stencil couplings and the restriction's
// boundary reads are exercised. Any change to the floating-point operation
// order of the kernels changes these hashes.
TEST(Mg, TwoVcyclesAreBitPinned) {
    struct Case {
        int dim;
        GridSize g;
        int nranks;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {1, GridSize{65, 1, 1}, 1, 0x2ae268296f0b9168ull},
        {1, GridSize{65, 1, 1}, 3, 0x58a4c72cb32a9fceull},
        {1, GridSize{65, 1, 1}, 4, 0x0e49d75849d786edull},
        {2, GridSize{33, 17, 1}, 1, 0x31ab2351f34c4a82ull},
        {2, GridSize{33, 17, 1}, 3, 0x23b0f25a2d12da10ull},
        {2, GridSize{33, 17, 1}, 4, 0x1d399d96c4c7d3ceull},
        {3, GridSize{17, 17, 9}, 1, 0x161866e291e2d7a1ull},
        {3, GridSize{17, 17, 9}, 3, 0x480e999ff4c5b5daull},
        {3, GridSize{17, 17, 9}, 4, 0x675cb2a5001f24efull},
    };
    for (const Case& tc : cases) {
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
        EXPECT_EQ(fnv1a(global), tc.hash)
            << "dim=" << tc.dim << " nranks=" << tc.nranks << " got 0x" << std::hex
            << fnv1a(global);
    }
}

}  // namespace
