// Tests for the nonlinear (SNES/Bratu) and time-stepping (TS/heat) layers,
// and the Chebyshev multigrid smoother.
#include <gtest/gtest.h>

#include <cmath>

#include "petsckit/bratu.hpp"
#include "petsckit/mg.hpp"
#include "petsckit/ts.hpp"

namespace {

using namespace nncomm;
using pk::BratuProblem;
using pk::DMDA;
using pk::GridSize;
using pk::HeatSolver;
using pk::Index;
using pk::MGConfig;
using pk::MGSolver;
using pk::ScatterBackend;
using pk::SnesConfig;
using pk::Stencil;
using pk::TimeScheme;
using pk::TsConfig;
using pk::Vec;
using rt::Comm;
using rt::World;

// ---------------------------------------------------------------------------
// SNES / Bratu

TEST(Snes, BratuLambdaZeroIsLinearAndConvergesInOneStep) {
    // With lambda = 0 the problem is -Δu = 0 with zero boundary: u = 0, and
    // Newton is exact after a single step from any starting point.
    World w(4);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{17, 17, 1}, 1, 1, Stencil::Star);
        BratuProblem problem(da, 0.0);
        Vec x = da->create_global();
        x.set_all(0.3);
        SnesConfig cfg;
        cfg.ksp = pk::KspConfig{1e-12, 1e-50, 2000};
        auto res = pk::newton_solve(problem, x, cfg);
        EXPECT_TRUE(res.converged);
        EXPECT_LE(res.iterations, 2);
        EXPECT_LT(x.norm_inf(), 1e-6);
    });
}

TEST(Snes, Bratu2DConvergesSubcritical) {
    World w(4);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{17, 17, 1}, 1, 1, Stencil::Star);
        BratuProblem problem(da, 5.0);  // subcritical (critical ~6.8)
        Vec x = da->create_global();    // zero initial guess
        auto res = pk::newton_solve(problem, x, SnesConfig{});
        EXPECT_TRUE(res.converged);
        EXPECT_LT(res.iterations, 10);
        // The solution is positive in the interior and bounded.
        double mx = 0;
        for (double v : x.local()) mx = std::max(mx, v);
        const double global_max = coll::allreduce_one(c, mx, coll::ReduceOp::Max);
        EXPECT_GT(global_max, 0.05);
        EXPECT_LT(global_max, 5.0);
        // And the residual really is small.
        Vec f = x.clone_empty();
        problem.residual(x, f);
        EXPECT_LT(f.norm2(), 1e-6);
    });
}

TEST(Snes, NewtonIsQuadraticNearSolution) {
    // Track the residual sequence: asymptotically each Newton step should
    // square the error (with a tight inner solve).
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{17, 17, 1}, 1, 1, Stencil::Star);
        BratuProblem problem(da, 4.0);
        Vec x = da->create_global();
        SnesConfig cfg;
        cfg.ksp = pk::KspConfig{1e-12, 1e-50, 5000};
        cfg.rtol = 1e-12;
        // Run to near-convergence step by step, recording ||F||.
        std::vector<double> norms;
        Vec f = x.clone_empty();
        problem.residual(x, f);
        norms.push_back(f.norm2());
        for (int it = 0; it < 6; ++it) {
            SnesConfig one = cfg;
            one.max_iters = 1;
            one.rtol = 0.0;
            one.atol = 0.0;
            pk::newton_solve(problem, x, one);
            problem.residual(x, f);
            norms.push_back(f.norm2());
            if (norms.back() < 1e-13) break;
        }
        // Find a pair of consecutive reductions and check super-linearity:
        // ratio_{k+1} << ratio_k once inside the basin.
        ASSERT_GE(norms.size(), 4u);
        const double r1 = norms[2] / norms[1];
        const double r2 = norms[3] / norms[2];
        EXPECT_LT(r2, 0.5 * r1);
    });
}

TEST(Snes, AllScatterBackendsAgree) {
    World w(4);
    std::vector<double> ref;
    for (auto backend : {ScatterBackend::HandTuned, ScatterBackend::DatatypeBaseline,
                         ScatterBackend::DatatypeOptimized}) {
        std::vector<double> vals;
        std::mutex mu;
        w.run([&](Comm& c) {
            auto da =
                std::make_shared<const DMDA>(c, 2, GridSize{13, 13, 1}, 1, 1, Stencil::Star);
            BratuProblem problem(da, 3.0);
            Vec x = da->create_global();
            SnesConfig cfg;
            cfg.scatter_backend = backend;
            auto res = pk::newton_solve(problem, x, cfg);
            EXPECT_TRUE(res.converged);
            std::lock_guard<std::mutex> lk(mu);
            for (double v : x.local()) vals.push_back(v);
        });
        std::sort(vals.begin(), vals.end());
        if (ref.empty()) {
            ref = vals;
        } else {
            ASSERT_EQ(vals.size(), ref.size());
            for (std::size_t i = 0; i < vals.size(); ++i) {
                EXPECT_NEAR(vals[i], ref[i], 1e-9);
            }
        }
    }
}

TEST(Snes, SupercriticalLambdaDoesNotFalselyConverge) {
    // Far above the critical lambda there is no steady solution; Newton
    // must report non-convergence rather than a bogus answer.
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{17, 17, 1}, 1, 1, Stencil::Star);
        BratuProblem problem(da, 50.0);
        Vec x = da->create_global();
        SnesConfig cfg;
        cfg.max_iters = 10;
        try {
            auto res = pk::newton_solve(problem, x, cfg);
            EXPECT_FALSE(res.converged);
        } catch (const nncomm::Error&) {
            // CG may legitimately detect the indefinite Jacobian instead.
            SUCCEED();
        }
    });
}

// ---------------------------------------------------------------------------
// TS / heat equation

TEST(Ts, ImplicitEulerDecaysToZero) {
    World w(4);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{17, 17, 1}, 1, 1, Stencil::Star);
        TsConfig cfg;
        cfg.dt = 0.01;  // far above the explicit stability limit
        HeatSolver heat(da, cfg);
        Vec u = da->create_global();
        // Initial spike in the middle of the domain.
        if (da->owns(8, 8, 0)) u.at_global(da->global_index(8, 8, 0)) = 1.0;
        const double n0 = u.norm2();
        heat.advance(u, 20);
        const double n1 = u.norm2();
        EXPECT_LT(n1, 0.2 * n0);  // diffusion decays the spike
        EXPECT_GT(n1, 0.0);
        EXPECT_NEAR(heat.time(), 0.2, 1e-12);
    });
}

TEST(Ts, ExplicitEulerStableBelowLimit) {
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 1, GridSize{33, 1, 1}, 1, 1, Stencil::Star);
        TsConfig cfg;
        cfg.scheme = TimeScheme::ForwardEuler;
        HeatSolver probe(da, cfg);
        cfg.dt = 0.9 * probe.explicit_stability_limit();
        HeatSolver heat(da, cfg);
        Vec u = da->create_global();
        if (da->owns(16, 0, 0)) u.at_global(da->global_index(16, 0, 0)) = 1.0;
        const double n0 = u.norm2();
        heat.advance(u, 200);
        EXPECT_LT(u.norm2(), n0);          // decays
        EXPECT_FALSE(std::isnan(u.norm2()));
    });
}

TEST(Ts, ExplicitEulerBlowsUpAboveLimit) {
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 1, GridSize{33, 1, 1}, 1, 1, Stencil::Star);
        TsConfig cfg;
        cfg.scheme = TimeScheme::ForwardEuler;
        HeatSolver probe(da, cfg);
        cfg.dt = 1.5 * probe.explicit_stability_limit();
        HeatSolver heat(da, cfg);
        Vec u = da->create_global();
        if (da->owns(16, 0, 0)) u.at_global(da->global_index(16, 0, 0)) = 1.0;
        const double n0 = u.norm2();
        heat.advance(u, 200);
        EXPECT_GT(u.norm2(), 100.0 * n0);  // classic CFL violation
    });
}

TEST(Ts, ImplicitAndExplicitAgreeForTinySteps) {
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 1, GridSize{17, 1, 1}, 1, 1, Stencil::Star);
        auto make_u = [&] {
            Vec u = da->create_global();
            for (Index i = u.range().begin; i < u.range().end; ++i) {
                u.at_global(i) = std::sin(static_cast<double>(i));
            }
            // Zero boundary for consistency.
            if (da->owns(0, 0, 0)) u.at_global(da->global_index(0, 0, 0)) = 0.0;
            if (da->owns(16, 0, 0)) u.at_global(da->global_index(16, 0, 0)) = 0.0;
            return u;
        };
        TsConfig icfg, ecfg;
        icfg.dt = ecfg.dt = 1e-6;
        ecfg.scheme = TimeScheme::ForwardEuler;
        HeatSolver imp(da, icfg), exp(da, ecfg);
        Vec ui = make_u(), ue = make_u();
        imp.advance(ui, 10);
        exp.advance(ue, 10);
        Vec diff = ui.clone_empty();
        diff.waxpy_diff(ui, ue);
        EXPECT_LT(diff.norm_inf(), 1e-6 * std::max(1.0, ui.norm_inf()));
    });
}

TEST(Ts, SteadyStateMatchesLaplaceSolve) {
    // With constant forcing, the heat equation relaxes to -Δu = f; compare
    // the long-time state against a direct CG solve.
    World w(4);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{17, 17, 1}, 1, 1, Stencil::Star);
        TsConfig cfg;
        cfg.dt = 0.05;
        HeatSolver heat(da, cfg);
        Vec f = da->create_global();
        pk::fill_rhs_constant(*da, f);
        Vec u = da->create_global();
        heat.advance(u, 400, &f);  // t = 20: thoroughly relaxed

        pk::LaplacianOp A(da);
        Vec x = da->create_global();
        auto res = pk::cg(A, f, x, pk::KspConfig{1e-12, 1e-50, 5000});
        ASSERT_TRUE(res.converged);
        Vec diff = u.clone_empty();
        diff.waxpy_diff(u, x);
        EXPECT_LT(diff.norm_inf(), 1e-6 * std::max(1.0, x.norm_inf()));
    });
}

// ---------------------------------------------------------------------------
// Chebyshev smoother

TEST(ChebySmoother, PowerIterationBoundsJacobiLaplacian) {
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{33, 33, 1}, 1, 1, Stencil::Star);
        pk::LaplacianOp A(da);
        Vec d = da->create_global();
        A.fill_diagonal(d);
        pk::JacobiPreconditioner M(std::move(d));
        Vec proto = da->create_global();
        const double lmax = pk::estimate_max_eigenvalue(A, proto, 20, &M);
        // Eigenvalues of D^-1 A for the Dirichlet Laplacian lie in (0, 2).
        EXPECT_GT(lmax, 1.0);
        EXPECT_LT(lmax, 2.05);
    });
}

TEST(ChebySmoother, MgConvergesAtLeastAsFastAsJacobi) {
    World w(4);
    int jacobi_iters = 0, cheby_iters = 0;
    w.run([&](Comm& c) {
        for (auto smoother : {pk::Smoother::Jacobi, pk::Smoother::Chebyshev}) {
            MGConfig cfg;
            cfg.levels = 3;
            cfg.smoother = smoother;
            MGSolver mg(c, 2, GridSize{33, 33, 1}, cfg);
            Vec b = mg.fine_dmda().create_global();
            pk::fill_rhs_constant(mg.fine_dmda(), b);
            Vec x = b.clone_empty();
            auto res = mg.solve(b, x, 1e-9, 60);
            EXPECT_TRUE(res.converged);
            if (c.rank() == 0) {
                (smoother == pk::Smoother::Jacobi ? jacobi_iters : cheby_iters) =
                    res.iterations;
            }
        }
    });
    // Degree-2 Chebyshev on the PETSc-style [0.1, 1.1]*lambda_max interval
    // lands in the same V-cycle-count ballpark as 2 damped-Jacobi sweeps.
    EXPECT_GT(cheby_iters, 0);
    EXPECT_LE(cheby_iters, jacobi_iters + 8);
}

TEST(ChebySmoother, DampsOscillatoryErrorFast) {
    // A smoother's job: kill the high-frequency half of the spectrum. With
    // b = 0 the iterate IS the error; start from the checkerboard mode
    // (the most oscillatory eigenvector) and expect strong decay, far
    // stronger than the decay of the smoothest mode.
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 2, GridSize{17, 17, 1}, 1, 1, Stencil::Star);
        pk::LaplacianOp A(da);
        Vec d = da->create_global();
        A.fill_diagonal(d);
        pk::JacobiPreconditioner M(std::move(d));
        Vec b = da->create_global();  // zero RHS: solution is zero
        Vec proto = b.clone_empty();
        const double lmax = pk::estimate_max_eigenvalue(A, proto, 15, &M);

        auto run_from = [&](auto fill) {
            Vec x = b.clone_empty();
            const auto& o = da->owned();
            std::size_t at = 0;
            for (Index k = o.zs; k < o.zs + o.zm; ++k) {
                for (Index j = o.ys; j < o.ys + o.ym; ++j) {
                    for (Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                        x.data()[at] = da->on_boundary(i, j, 0) ? 0.0 : fill(i, j);
                    }
                }
            }
            const double n0 = x.norm2();
            pk::chebyshev(A, b, x, 0.1 * lmax, 1.1 * lmax, 5, &M);
            return x.norm2() / n0;
        };
        const double osc_decay =
            run_from([](Index i, Index j) { return ((i + j) % 2 == 0) ? 1.0 : -1.0; });
        const double smooth_decay = run_from([](Index i, Index j) {
            return std::sin(M_PI * static_cast<double>(i) / 16.0) *
                   std::sin(M_PI * static_cast<double>(j) / 16.0);
        });
        EXPECT_LT(osc_decay, 0.15);                // oscillatory error crushed
        EXPECT_LT(osc_decay, 0.5 * smooth_decay);  // selectively
    });
}

TEST(ChebySmoother, RejectsBadInterval) {
    World w(1);
    w.run([](Comm& c) {
        Vec b(c, 8), x(c, 8);
        pk::IdentityOperator I;
        EXPECT_THROW(pk::chebyshev(I, b, x, 2.0, 1.0, 3), nncomm::Error);
        EXPECT_THROW(pk::chebyshev(I, b, x, 0.0, 1.0, 3), nncomm::Error);
    });
}

}  // namespace
