// Tests for the matrix-free Laplacian's row kernels: bit-exact agreement
// with a point-at-a-time evaluation of the same stencil on every
// decomposition shape (including owned boxes one and two points wide),
// bit-exact agreement of the fused residual and Jacobi sweep with apply
// followed by the separate vector operations, and the output checks
// (size, and no output that is an input).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "petsckit/laplacian.hpp"

namespace {

using namespace nncomm;
using pk::DMDA;
using pk::GridBox;
using pk::GridSize;
using pk::Index;
using pk::LaplacianOp;
using pk::Stencil;
using pk::Vec;
using rt::Comm;
using rt::World;

// The stencil one point at a time, in the operation order the row kernels
// must reproduce: 2d*c - (i-1) - (i+1) - (j-1) - (j+1) - (k-1) - (k+1), then
// * 1/h², with couplings to boundary points dropped and identity rows on
// boundary points. `loc` is the ghosted array after a ghost exchange.
std::vector<double> reference_apply(const DMDA& da, const std::vector<double>& loc) {
    const GridBox& o = da.owned();
    const GridSize g = da.grid();
    const int dim = da.dim();
    const double two_d = 2.0 * dim;
    const double h = 1.0 / static_cast<double>(g.m - 1);
    const double inv_h2 = 1.0 / (h * h);
    auto boundary = [&](Index i, Index j, Index k) {
        if (i == 0 || i == g.m - 1) return true;
        if (dim >= 2 && (j == 0 || j == g.n - 1)) return true;
        if (dim >= 3 && (k == 0 || k == g.p - 1)) return true;
        return false;
    };
    auto at = [&](Index i, Index j, Index k) {
        return loc[static_cast<std::size_t>(da.local_index(i, j, k))];
    };
    std::vector<double> out;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                const double center = at(i, j, k);
                if (boundary(i, j, k)) {
                    out.push_back(center);
                    continue;
                }
                double acc = two_d * center;
                if (i > 1) acc -= at(i - 1, j, k);
                if (i < g.m - 2) acc -= at(i + 1, j, k);
                if (dim >= 2) {
                    if (j > 1) acc -= at(i, j - 1, k);
                    if (j < g.n - 2) acc -= at(i, j + 1, k);
                }
                if (dim >= 3) {
                    if (k > 1) acc -= at(i, j, k - 1);
                    if (k < g.p - 2) acc -= at(i, j, k + 1);
                }
                out.push_back(acc * inv_h2);
            }
        }
    }
    return out;
}

// A value in [-1, 1) with all 53 mantissa bits drawn from `key`
// (splitmix64), so that any change in operation order changes the result.
double full_mantissa(std::uint64_t key) {
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
}

struct StencilCase {
    int dim;
    GridSize g;
    int nranks;
    int width = 1;
    Stencil stencil = Stencil::Star;
};

// Applies the operator to a vector that is non-zero on every point,
// Dirichlet points included (so a dropped coupling that leaked into the
// sum would change the result), and compares bytes with the reference.
// Then compares the fused passes byte for byte with apply followed by the
// separate vector operations: residual with waxpy_diff, jacobi_sweep with
// the update loop x[i] += ω r[i] / d[i], d from fill_diagonal. b carries
// full mantissas too, so any change in the epilogues' operation order
// shows.
void expect_bit_exact(const StencilCase& tc) {
    World w(tc.nranks);
    w.run([&](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, tc.dim, tc.g, 1, tc.width, tc.stencil);
        LaplacianOp A(da);
        Vec x = da->create_global();
        Vec b = x.clone_empty(), d = x.clone_empty();
        for (Index gi = x.range().begin; gi < x.range().end; ++gi) {
            const auto key = static_cast<std::uint64_t>(gi);
            x.at_global(gi) = full_mantissa(key);
            b.at_global(gi) = full_mantissa(key + 0x10000);
        }
        A.fill_diagonal(d);
        Vec y = x.clone_empty();
        for (int rep = 0; rep < 2; ++rep) A.apply(x, y);  // rep 1 reuses the scratch

        std::vector<double> loc = da->create_local();
        da->global_to_local(x, loc);
        const std::vector<double> ref = reference_apply(*da, loc);
        ASSERT_EQ(ref.size(), static_cast<std::size_t>(y.local_size()));
        const std::size_t bytes = ref.size() * sizeof(double);
        const std::string where = "dim=" + std::to_string(tc.dim) + " grid=" +
                                  std::to_string(tc.g.m) + "x" + std::to_string(tc.g.n) + "x" +
                                  std::to_string(tc.g.p) + " nranks=" +
                                  std::to_string(tc.nranks) + " rank=" + std::to_string(c.rank());
        EXPECT_EQ(std::memcmp(ref.data(), y.data(), bytes), 0) << "apply " << where;

        const double omega = 2.0 / 3.0;
        Vec r_ref = x.clone_empty(), x_ref = x.clone_empty();
        r_ref.waxpy_diff(b, y);
        x_ref.copy_from(x);
        for (Index i = 0; i < x.local_size(); ++i) {
            x_ref.data()[i] += omega * r_ref.data()[i] / d.data()[i];
        }
        Vec x_before = x.clone_empty();
        x_before.copy_from(x);
        Vec r = x.clone_empty(), x_out = x.clone_empty();
        A.residual(b, x, r);
        A.jacobi_sweep(b, omega, x, x_out);
        EXPECT_EQ(std::memcmp(r.data(), r_ref.data(), bytes), 0) << "residual " << where;
        EXPECT_EQ(std::memcmp(x_out.data(), x_ref.data(), bytes), 0) << "sweep " << where;
        EXPECT_EQ(std::memcmp(x.data(), x_before.data(), bytes), 0) << "x written " << where;
    });
}

TEST(Laplacian, RowKernelsMatchPointwiseStencilBitForBit) {
    for (int nranks = 1; nranks <= 7; ++nranks) {
        expect_bit_exact({1, GridSize{13, 1, 1}, nranks});
        expect_bit_exact({2, GridSize{9, 7, 1}, nranks});
        expect_bit_exact({3, GridSize{7, 6, 5}, nranks});
    }
}

TEST(Laplacian, RowKernelsMatchOnThinOwnedBoxes) {
    // Owned boxes one and two points wide: rows whose interior sweep is
    // empty, and shells that are the whole box.
    expect_bit_exact({1, GridSize{5, 1, 1}, 4});
    expect_bit_exact({2, GridSize{4, 7, 1}, 5});
    expect_bit_exact({3, GridSize{6, 5, 3}, 5});
    expect_bit_exact({2, GridSize{2, 5, 1}, 3});
    expect_bit_exact({3, GridSize{3, 3, 3}, 1});
}

TEST(Laplacian, RowKernelsMatchOnWideBoxGhosts) {
    // Stencil width 2 with a Box stencil: the ghosted box is wider than
    // the stencil reaches.
    expect_bit_exact({2, GridSize{11, 9, 1}, 4, 2, Stencil::Box});
    expect_bit_exact({3, GridSize{8, 8, 8}, 2, 2, Stencil::Box});
}

// The fused passes refuse an output of the wrong size, and an output that
// is x (written while the ghost exchange still reads it) or b.
TEST(Laplacian, FusedPassesRejectBadOutputs) {
    World w(2);
    w.run([](Comm& c) {
        auto da = std::make_shared<const DMDA>(c, 3, GridSize{9, 9, 9}, 1, 1, Stencil::Star);
        const DMDA small(c, 3, GridSize{5, 5, 5}, 1, 1, Stencil::Star);
        LaplacianOp A(da);
        Vec x = da->create_global();
        Vec b = x.clone_empty(), out = x.clone_empty();
        Vec wrong = small.create_global();
        EXPECT_THROW(A.residual(b, x, wrong), nncomm::Error);
        EXPECT_THROW(A.residual(b, x, x), nncomm::Error);
        EXPECT_THROW(A.residual(b, x, b), nncomm::Error);
        EXPECT_THROW(A.jacobi_sweep(b, 0.5, x, wrong), nncomm::Error);
        EXPECT_THROW(A.jacobi_sweep(b, 0.5, x, x), nncomm::Error);
        EXPECT_THROW(A.jacobi_sweep(b, 0.5, x, b), nncomm::Error);
        EXPECT_THROW(A.apply(x, x), nncomm::Error);
        // Every rejection fires before the ghost exchange begins, so the
        // operator is still usable.
        A.residual(b, x, out);
        A.jacobi_sweep(b, 0.5, x, out);
    });
}

TEST(Laplacian, ApplyRejectsMismatchedOutput) {
    World w(1);
    EXPECT_THROW(w.run([](Comm& c) {
                     auto big = std::make_shared<const DMDA>(c, 3, GridSize{9, 9, 9}, 1, 1,
                                                             Stencil::Star);
                     const DMDA small(c, 3, GridSize{5, 5, 5}, 1, 1, Stencil::Star);
                     LaplacianOp A(big);
                     Vec x = big->create_global();
                     Vec y = small.create_global();
                     A.apply(x, y);  // 729 outputs into a 125-entry vector
                 }),
                 nncomm::Error);
}

}  // namespace
