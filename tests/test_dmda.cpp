// Tests for DMDA: process-grid factorization, ownership boxes, indexing,
// and ghost exchange (star/box stencils, 1/2/3-D, multiple dof, domain
// boundaries, all collective algorithms).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "core/rng.hpp"
#include "petsckit/dmda.hpp"

namespace {

using namespace nncomm;
using pk::DMDA;
using pk::GridBox;
using pk::GridSize;
using pk::Index;
using pk::Stencil;
using pk::Vec;
using rt::Comm;
using rt::World;

TEST(FactorGrid, BasicShapes) {
    // 3-D cube: prefer a balanced factorization.
    auto g = DMDA::factor_grid(8, 3, GridSize{32, 32, 32});
    EXPECT_EQ(g[0] * g[1] * g[2], 8);
    EXPECT_EQ(g[0], 2);
    EXPECT_EQ(g[1], 2);
    EXPECT_EQ(g[2], 2);
    // 2-D: pz forced to 1.
    g = DMDA::factor_grid(6, 2, GridSize{30, 30, 1});
    EXPECT_EQ(g[2], 1);
    EXPECT_EQ(g[0] * g[1], 6);
    // 1-D: only px.
    g = DMDA::factor_grid(5, 1, GridSize{100, 1, 1});
    EXPECT_EQ(g[0], 5);
    EXPECT_EQ(g[1], 1);
    EXPECT_EQ(g[2], 1);
}

TEST(FactorGrid, RespectsAxisExtents) {
    // 16 ranks on a 4 x 100 grid: px can be at most 4.
    auto g = DMDA::factor_grid(16, 2, GridSize{4, 100, 1});
    EXPECT_LE(g[0], 4);
    EXPECT_EQ(g[0] * g[1], 16);
    // Impossible: more ranks than grid points.
    EXPECT_THROW(DMDA::factor_grid(7, 1, GridSize{3, 1, 1}), nncomm::Error);
}

TEST(FactorGrid, ElongatedGridSplitsAlongLongAxis) {
    auto g = DMDA::factor_grid(4, 3, GridSize{1000, 4, 4});
    EXPECT_EQ(g[0], 4);  // splitting x minimizes surface
}

TEST(Dmda, OwnedBoxesTileTheGrid) {
    World w(6);
    w.run([](Comm& c) {
        DMDA da(c, 2, GridSize{13, 7, 1}, 1, 1, Stencil::Star);
        // Sum of all owned volumes equals the grid volume; boxes disjoint.
        Index total = 0;
        std::vector<bool> covered(13 * 7, false);
        for (int r = 0; r < c.size(); ++r) {
            const GridBox b = da.owned_box_of(r);
            total += b.volume();
            for (Index j = b.ys; j < b.ys + b.ym; ++j) {
                for (Index i = b.xs; i < b.xs + b.xm; ++i) {
                    const auto at = static_cast<std::size_t>(j * 13 + i);
                    EXPECT_FALSE(covered[at]);
                    covered[at] = true;
                }
            }
        }
        EXPECT_EQ(total, 13 * 7);
        EXPECT_EQ(da.owned_box_of(c.rank()).xs, da.owned().xs);
    });
}

TEST(Dmda, GlobalIndexBijective) {
    World w(4);
    w.run([](Comm& c) {
        DMDA da(c, 3, GridSize{5, 4, 3}, 2, 1, Stencil::Star);
        std::vector<bool> seen(5 * 4 * 3 * 2, false);
        for (Index k = 0; k < 3; ++k) {
            for (Index j = 0; j < 4; ++j) {
                for (Index i = 0; i < 5; ++i) {
                    for (int comp = 0; comp < 2; ++comp) {
                        const Index g = da.global_index(i, j, k, comp);
                        ASSERT_GE(g, 0);
                        ASSERT_LT(g, 5 * 4 * 3 * 2);
                        EXPECT_FALSE(seen[static_cast<std::size_t>(g)]);
                        seen[static_cast<std::size_t>(g)] = true;
                    }
                }
            }
        }
    });
}

// append_global_indices lists a box row by row, one owner lookup per owner
// range a row crosses; it must equal global_index point by point. Random
// boxes over uneven process grids, the whole grid (every row crosses every
// owner's x-range), empty boxes (nothing appended, earlier entries kept)
// and dof 2 (component 0 of each point).
TEST(Dmda, AppendGlobalIndicesMatchesPerPointGlobalIndex) {
    struct Case {
        int dim;
        GridSize size;
        int nranks;
        int dof;
    };
    const Case cases[] = {
        {1, {65, 1, 1}, 1, 1}, {1, {65, 1, 1}, 7, 1}, {1, {9, 1, 1}, 3, 2},
        {2, {65, 9, 1}, 5, 1}, {2, {9, 9, 1}, 6, 1},  {2, {33, 9, 1}, 4, 2},
        {3, {9, 9, 9}, 8, 1},  {3, {65, 9, 9}, 3, 1}, {3, {17, 9, 9}, 6, 2},
        {3, {9, 9, 9}, 7, 1},
    };
    for (const Case& tc : cases) {
        World w(tc.nranks);
        w.run([&](Comm& c) {
            DMDA da(c, tc.dim, tc.size, tc.dof, 1, Stencil::Star);
            const GridSize g = tc.size;
            auto check = [&](const GridBox& b) {
                std::vector<Index> want{-7};
                for (Index k = b.zs; k < b.zs + b.zm; ++k) {
                    for (Index j = b.ys; j < b.ys + b.ym; ++j) {
                        for (Index i = b.xs; i < b.xs + b.xm; ++i) {
                            want.push_back(da.global_index(i, j, k));
                        }
                    }
                }
                std::vector<Index> got{-7};
                da.append_global_indices(b, got);
                EXPECT_EQ(got, want) << "dim " << tc.dim << ", " << tc.nranks << " ranks, box ("
                                     << b.xs << "+" << b.xm << ", " << b.ys << "+" << b.ym
                                     << ", " << b.zs << "+" << b.zm << ")";
            };
            check(GridBox{0, g.m, 0, g.n, 0, g.p});
            check(GridBox{0, 0, 0, g.n, 0, g.p});
            check(GridBox{g.m - 1, 1, 0, 0, 0, g.p});
            Rng rng(static_cast<std::uint64_t>(31 * tc.nranks + tc.dim + 1000 * c.rank()));
            auto axis = [&](Index extent, Index& s, Index& m) {
                s = rng.uniform_i64(0, extent - 1);
                m = rng.uniform_i64(1, extent - s);
            };
            for (int t = 0; t < 40; ++t) {
                GridBox b;
                axis(g.m, b.xs, b.xm);
                axis(g.n, b.ys, b.ym);
                axis(g.p, b.zs, b.zm);
                check(b);
            }
        });
    }
}

TEST(Dmda, AppendGlobalIndicesRejectsBoxOutsideGrid) {
    World w(2);
    w.run([](Comm& c) {
        DMDA da(c, 3, GridSize{9, 7, 5}, 1, 1, Stencil::Star);
        const GridBox outside[] = {
            {-1, 2, 0, 1, 0, 1}, {8, 2, 0, 1, 0, 1}, {0, 1, -1, 1, 0, 1}, {0, 1, 6, 2, 0, 1},
            {0, 1, 0, 1, -1, 1}, {0, 1, 0, 1, 5, 1}, {0, 1, 0, -1, 0, -1},
        };
        std::vector<Index> out;
        for (const GridBox& b : outside) {
            EXPECT_THROW(da.append_global_indices(b, out), nncomm::Error);
        }
        EXPECT_TRUE(out.empty());
    });
}

TEST(Dmda, GlobalIndexMatchesVecOwnership) {
    World w(4);
    w.run([](Comm& c) {
        DMDA da(c, 2, GridSize{8, 8, 1}, 1, 1, Stencil::Star);
        Vec v = da.create_global();
        const GridBox& o = da.owned();
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                const Index g = da.global_index(i, j, 0);
                EXPECT_TRUE(v.range().contains(g));
            }
        }
    });
}

// Fills a DMDA global vector with a recognizable function of the grid
// coordinates.
double coord_value(Index i, Index j, Index k, int comp) {
    return 1e6 * static_cast<double>(k) + 1e3 * static_cast<double>(j) +
           static_cast<double>(i) + 0.1 * comp;
}

void fill_dmda_vec(const DMDA& da, Vec& v) {
    const GridBox& o = da.owned();
    std::size_t at = 0;
    for (Index k = o.zs; k < o.zs + o.zm; ++k) {
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                for (int comp = 0; comp < da.dof(); ++comp, ++at) {
                    v.data()[at] = coord_value(i, j, k, comp);
                }
            }
        }
    }
}

struct GhostCase {
    int nranks;
    int dim;
    GridSize size;
    int dof;
    int sw;
    Stencil stencil;
};

class DmdaGhost : public ::testing::TestWithParam<int> {};

const GhostCase kGhostCases[] = {
    {1, 1, {16, 1, 1}, 1, 1, Stencil::Star},
    {4, 1, {17, 1, 1}, 1, 1, Stencil::Star},
    {4, 1, {20, 1, 1}, 2, 2, Stencil::Star},
    {4, 2, {9, 9, 1}, 1, 1, Stencil::Star},
    {4, 2, {9, 9, 1}, 1, 1, Stencil::Box},
    {6, 2, {12, 10, 1}, 1, 2, Stencil::Box},
    {6, 2, {12, 10, 1}, 3, 1, Stencil::Star},
    {8, 3, {8, 8, 8}, 1, 1, Stencil::Star},
    {8, 3, {8, 8, 8}, 1, 1, Stencil::Box},
    {8, 3, {9, 7, 6}, 2, 1, Stencil::Box},
    {12, 3, {10, 9, 8}, 1, 1, Stencil::Star},
};

TEST_P(DmdaGhost, GlobalToLocalFillsGhosts) {
    const GhostCase& tc = kGhostCases[GetParam()];
    World w(tc.nranks);
    w.run([&](Comm& c) {
        DMDA da(c, tc.dim, tc.size, tc.dof, tc.sw, tc.stencil);
        Vec v = da.create_global();
        fill_dmda_vec(da, v);
        // Poison the ghosted array so "untouched" is distinguishable from
        // "filled with the right value".
        constexpr double kPoison = -777.25;
        auto local = da.create_local();
        std::fill(local.begin(), local.end(), kPoison);
        da.global_to_local(v, local);

        const GridBox& gb = da.ghosted();
        const GridBox& o = da.owned();
        for (Index k = gb.zs; k < gb.zs + gb.zm; ++k) {
            for (Index j = gb.ys; j < gb.ys + gb.ym; ++j) {
                for (Index i = gb.xs; i < gb.xs + gb.xm; ++i) {
                    // Star stencils do not fill corner/edge ghosts: a ghost
                    // point must differ from the owned box in at most one
                    // axis to be filled, and every other slot keeps the
                    // poison.
                    int out_axes = 0;
                    if (i < o.xs || i >= o.xs + o.xm) ++out_axes;
                    if (j < o.ys || j >= o.ys + o.ym) ++out_axes;
                    if (k < o.zs || k >= o.zs + o.zm) ++out_axes;
                    const bool filled = tc.stencil == Stencil::Box || out_axes <= 1;
                    for (int comp = 0; comp < tc.dof; ++comp) {
                        EXPECT_EQ(local[static_cast<std::size_t>(da.local_index(i, j, k, comp))],
                                  filled ? coord_value(i, j, k, comp) : kPoison)
                            << "point (" << i << "," << j << "," << k << ") comp " << comp;
                    }
                }
            }
        }
    });
}

TEST_P(DmdaGhost, LocalToGlobalRoundTrip) {
    const GhostCase& tc = kGhostCases[GetParam()];
    World w(tc.nranks);
    w.run([&](Comm& c) {
        DMDA da(c, tc.dim, tc.size, tc.dof, tc.sw, tc.stencil);
        Vec v = da.create_global();
        fill_dmda_vec(da, v);
        auto local = da.create_local();
        da.global_to_local(v, local);
        Vec back = da.create_global();
        da.local_to_global(local, back);
        for (Index g = 0; g < back.local_size(); ++g) {
            EXPECT_DOUBLE_EQ(back.data()[g], v.data()[g]);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, DmdaGhost,
                         ::testing::Range(0, static_cast<int>(std::size(kGhostCases))));

TEST(Dmda, GhostExchangeWorksWithAllCollectiveAlgos) {
    // RoundRobin runs the one-shot ialltoallw, Binned the DMDA's persistent
    // plan (twice, so the replay is covered too): every run must produce
    // the same ghosted array byte for byte, unfilled slots included.
    World w(4);
    w.run([](Comm& c) {
        DMDA da(c, 2, GridSize{10, 10, 1}, 1, 1, Stencil::Box);
        Vec v = da.create_global();
        fill_dmda_vec(da, v);
        auto exchange = [&](coll::AlltoallwAlgo algo) {
            auto local = da.create_local();
            std::fill(local.begin(), local.end(), -777.25);
            coll::CollConfig cfg;
            cfg.alltoallw_algo = algo;
            da.global_to_local(v, local, cfg);
            return local;
        };
        const auto one_shot = exchange(coll::AlltoallwAlgo::RoundRobin);
        const GridBox& o = da.owned();
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                EXPECT_DOUBLE_EQ(one_shot[static_cast<std::size_t>(da.local_index(i, j, 0))],
                                 coord_value(i, j, 0, 0));
            }
        }
        for (int run = 0; run < 2; ++run) {
            const auto planned = exchange(coll::AlltoallwAlgo::Binned);
            ASSERT_EQ(planned.size(), one_shot.size());
            EXPECT_EQ(std::memcmp(planned.data(), one_shot.data(),
                                  one_shot.size() * sizeof(double)),
                      0)
                << "run " << run;
        }
    });
}

TEST(Dmda, GhostPlanSteadyStateBuildsNothing) {
    // After the first exchange compiles the DMDA's plan, every further
    // exchange replays it: no schedule, no pack engine, and — the plan is
    // two-sided whatever the env gates say — no RMA execute or fence.
    World w(8);
    w.run([](Comm& c) {
        DMDA da(c, 3, GridSize{9, 8, 7}, 2, 1, Stencil::Box);
        Vec v = da.create_global();
        fill_dmda_vec(da, v);
        auto local = da.create_local();
        const StatCounters before_first = c.counters();
        da.global_to_local(v, local);
        const StatCounters first = c.counters();
        EXPECT_EQ(first.coll_schedules_built - before_first.coll_schedules_built, 1u);
        const auto ref = local;
        for (int rep = 0; rep < 3; ++rep) {
            const StatCounters before = c.counters();
            std::fill(local.begin(), local.end(), 0.0);
            da.global_to_local(v, local);
            const StatCounters after = c.counters();
            EXPECT_EQ(after.coll_schedules_built - before.coll_schedules_built, 0u);
            EXPECT_EQ(after.engine_builds - before.engine_builds, 0u);
            EXPECT_EQ(after.coll_rma_plan_executes - before.coll_rma_plan_executes, 0u);
            EXPECT_EQ(after.rt_rma_fences - before.rt_rma_fences, 0u);
            EXPECT_GE(after.coll_schedule_cache_hits - before.coll_schedule_cache_hits, 1u);
            EXPECT_EQ(std::memcmp(local.data(), ref.data(), ref.size() * sizeof(double)), 0);
        }
    });
}

// The ghost plan's clear-to-send handshake follows the one static
// threshold: a rank sends a token only to a neighbour whose slab goes
// rendezvous. A token is one lane delivery; a payload is one lane delivery
// or one zero-copy transfer (a rendezvous send degrades to eager when the
// receiver has not consumed our token yet), so lane deliveries plus
// zero-copy transfers count payloads plus tokens exactly.
TEST(Dmda, GhostPlanSendsClearToSendOnlyToRendezvousPeers) {
    World w(4);
    w.run([](Comm& c) {
        // 2 x 2 x 1 process grid: two face neighbours with 1536 B slabs
        // and one edge neighbour with a 128 B slab per rank.
        const GridSize size{24, 24, 8};
        constexpr int kDof = 2;
        auto second_exchange = [&c](const DMDA& da) {
            Vec v = da.create_global();
            fill_dmda_vec(da, v);
            auto local = da.create_local();
            da.global_to_local(v, local);  // compiles the plan
            c.barrier();
            c.reset_stats();
            da.global_to_local(v, local);
            return c.counters();
        };

        // Default threshold (32 KiB) above every slab: one eager message
        // per nonzero neighbour and no token.
        {
            DMDA da(c, 3, size, kDof, 1, Stencil::Box);
            const StatCounters cnt = second_exchange(da);
            EXPECT_EQ(cnt.rt_lane_fast_deliveries + cnt.rt_lane_overflow_deliveries,
                      da.neighbors().size());
            EXPECT_EQ(cnt.rt_zero_copy_msgs, 0u);
        }

        // Threshold below the face slabs, above the edge slab: one token
        // per neighbour whose slab this rank receives rendezvous.
        c.set_rendezvous_threshold(1024);
        DMDA da(c, 3, size, kDof, 1, Stencil::Box);
        std::uint64_t rdv_peers = 0;
        for (const DMDA::Neighbor& nb : da.neighbors()) {
            const std::uint64_t recv_bytes =
                static_cast<std::uint64_t>(nb.recv_box.volume()) * kDof * sizeof(double);
            if (recv_bytes >= c.rendezvous_threshold()) ++rdv_peers;
        }
        ASSERT_GT(rdv_peers, 0u);
        ASSERT_LT(rdv_peers, da.neighbors().size());
        const StatCounters cnt = second_exchange(da);
        EXPECT_EQ(cnt.rt_lane_fast_deliveries + cnt.rt_lane_overflow_deliveries +
                      cnt.rt_zero_copy_msgs,
                  da.neighbors().size() + rdv_peers);
        EXPECT_LE(cnt.rt_zero_copy_msgs, rdv_peers);
    });
}

TEST(Dmda, GhostPlanIsSingleFlight) {
    World w(4);
    w.run([](Comm& c) {
        DMDA da(c, 2, GridSize{10, 10, 1}, 1, 1, Stencil::Box);
        Vec v = da.create_global();
        fill_dmda_vec(da, v);
        auto ref = da.create_local();
        da.global_to_local(v, ref);

        auto first = da.create_local();
        auto second = da.create_local();
        coll::CollRequest req = da.global_to_local_begin(v, first);
        // Rejected before any traffic moves, whether or not the first
        // exchange's messages have already landed.
        EXPECT_THROW(da.global_to_local_begin(v, second), nncomm::Error);
        DMDA::global_to_local_end(req);
        EXPECT_EQ(std::memcmp(first.data(), ref.data(), ref.size() * sizeof(double)), 0);

        req = da.global_to_local_begin(v, second);
        DMDA::global_to_local_end(req);
        EXPECT_EQ(std::memcmp(second.data(), ref.data(), ref.size() * sizeof(double)), 0);
    });
}

TEST(Dmda, GhostRequestOutlivesItsDmda) {
    // The request shares ownership of the plan's execution state, so it
    // can be completed after the DMDA that issued it is gone.
    World w(4);
    w.run([](Comm& c) {
        auto da = std::make_unique<DMDA>(c, 2, GridSize{10, 10, 1}, 1, 1, Stencil::Box);
        Vec v = da->create_global();
        fill_dmda_vec(*da, v);
        auto ref = da->create_local();
        da->global_to_local(v, ref);

        auto local = da->create_local();
        coll::CollRequest req = da->global_to_local_begin(v, local);
        da.reset();
        DMDA::global_to_local_end(req);
        EXPECT_TRUE(req.done());
        EXPECT_EQ(std::memcmp(local.data(), ref.data(), ref.size() * sizeof(double)), 0);
    });
}

// ghosts_begin fills every ghost point exactly as global_to_local does
// (unfilled Star corners keep the same poison too); the owned region is
// not compared, as ghosts_begin leaves it unspecified.
TEST(Dmda, GhostsBeginFillsEveryGhostPointLikeGlobalToLocal) {
    for (const Stencil stencil : {Stencil::Star, Stencil::Box}) {
        for (int sw = 1; sw <= 2; ++sw) {
            for (int nranks = 1; nranks <= 8; ++nranks) {
                for (int dim = 2; dim <= 3; ++dim) {
                    const GridSize g = dim == 3 ? GridSize{16, 15, 14} : GridSize{17, 16, 1};
                    World w(nranks);
                    w.run([&](Comm& c) {
                        const int dof = sw;  // width 2 runs two components per point
                        DMDA da(c, dim, g, dof, sw, stencil);
                        Vec v = da.create_global();
                        fill_dmda_vec(da, v);
                        auto ref = da.create_local();
                        auto got = da.create_local();
                        std::fill(ref.begin(), ref.end(), -777.25);
                        std::fill(got.begin(), got.end(), -777.25);
                        da.global_to_local(v, ref);
                        for (int rep = 0; rep < 2; ++rep) {  // rep 1 replays the plan
                            coll::CollRequest req = da.ghosts_begin(v, got);
                            DMDA::global_to_local_end(req);
                        }
                        const GridBox& gb = da.ghosted();
                        for (Index k = gb.zs; k < gb.zs + gb.zm; ++k) {
                            for (Index j = gb.ys; j < gb.ys + gb.ym; ++j) {
                                for (Index i = gb.xs; i < gb.xs + gb.xm; ++i) {
                                    if (da.owns(i, j, k)) continue;
                                    for (int comp = 0; comp < da.dof(); ++comp) {
                                        const auto at =
                                            static_cast<std::size_t>(da.local_index(i, j, k, comp));
                                        EXPECT_EQ(std::memcmp(&got[at], &ref[at], sizeof(double)),
                                                  0)
                                            << "dim=" << dim << " sw=" << sw
                                            << " nranks=" << nranks << " point (" << i << ","
                                            << j << "," << k << ")";
                                    }
                                }
                            }
                        }
                    });
                }
            }
        }
    }
}

// ghosts_begin and global_to_local_begin share the DMDA's one plan, so
// either one while the other's exchange is in flight throws.
TEST(Dmda, GhostsBeginIsSingleFlight) {
    World w(4);
    w.run([](Comm& c) {
        DMDA da(c, 2, GridSize{10, 10, 1}, 1, 1, Stencil::Box);
        Vec v = da.create_global();
        fill_dmda_vec(da, v);
        auto first = da.create_local();
        auto second = da.create_local();
        coll::CollRequest req = da.ghosts_begin(v, first);
        EXPECT_THROW(da.ghosts_begin(v, second), nncomm::Error);
        EXPECT_THROW(da.global_to_local_begin(v, second), nncomm::Error);
        DMDA::global_to_local_end(req);
        req = da.global_to_local_begin(v, first);
        EXPECT_THROW(da.ghosts_begin(v, second), nncomm::Error);
        DMDA::global_to_local_end(req);
        req = da.ghosts_begin(v, second);
        DMDA::global_to_local_end(req);
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

// The bytes global_to_local and global_to_local_begin/_end write, owned
// region, ghosts and unfilled slots alike, pinned per case (recorded when
// the persistent plan still carried the owned box as its self entry): every rank's
// ghosted array, poisoned first, concatenated in rank order and hashed.
// Binned runs the persistent plan (twice, so the replay is pinned too),
// RoundRobin the one-shot exchange.
TEST(Dmda, GlobalToLocalBitsArePinned) {
    const struct {
        int nranks, dim;
        GridSize g;
        int dof, sw;
        Stencil stencil;
        std::uint64_t hash;
    } cases[] = {
        {1, 3, {9, 8, 7}, 1, 1, Stencil::Star, 0x89c0132fbbfe7c23ull},
        {4, 2, {17, 16, 1}, 2, 2, Stencil::Box, 0x74f214c5df4c8521ull},
        {6, 3, {16, 15, 14}, 1, 1, Stencil::Star, 0x8cb37e26900f274bull},
        {8, 3, {16, 15, 14}, 2, 2, Stencil::Box, 0x3b34f7d2ba5472e9ull},
    };
    for (const auto& tc : cases) {
        for (const coll::AlltoallwAlgo algo :
             {coll::AlltoallwAlgo::Binned, coll::AlltoallwAlgo::RoundRobin}) {
            for (const bool split : {false, true}) {
                std::vector<std::vector<double>> locals(static_cast<std::size_t>(tc.nranks));
                World w(tc.nranks);
                w.run([&](Comm& c) {
                    DMDA da(c, tc.dim, tc.g, tc.dof, tc.sw, tc.stencil);
                    Vec v = da.create_global();
                    for (Index gi = v.range().begin; gi < v.range().end; ++gi) {
                        v.at_global(gi) = 0.5 + static_cast<double>((gi * 7919) % 1013) / 1024.0;
                    }
                    coll::CollConfig cfg;
                    cfg.alltoallw_algo = algo;
                    auto& local = locals[static_cast<std::size_t>(c.rank())];
                    for (int rep = 0; rep < 2; ++rep) {
                        local = da.create_local();
                        std::fill(local.begin(), local.end(), -777.25);
                        if (split) {
                            coll::CollRequest req = da.global_to_local_begin(v, local, cfg);
                            DMDA::global_to_local_end(req);
                        } else {
                            da.global_to_local(v, local, cfg);
                        }
                    }
                });
                std::vector<double> all;
                for (const auto& l : locals) all.insert(all.end(), l.begin(), l.end());
                const std::uint64_t got = fnv1a(all);
                EXPECT_EQ(got, tc.hash) << "nranks=" << tc.nranks << " dim=" << tc.dim
                                        << " split=" << split << " got 0x" << std::hex << got;
            }
        }
    }
}

TEST(Dmda, NeighborVolumesAreNonuniformForBoxStencil) {
    // The paper's §2.1 observation: with a box stencil, face neighbors get
    // much more data than corner neighbors.
    World w(4);
    w.run([](Comm& c) {
        DMDA da(c, 2, GridSize{16, 16, 1}, 1, 1, Stencil::Box);
        // 2x2 process grid: every rank has 2 face neighbors and 1 corner.
        const auto& nbs = da.neighbors();
        ASSERT_EQ(nbs.size(), 3u);
        std::uint64_t face_bytes = 0, corner_bytes = 0;
        for (const auto& nb : nbs) {
            const int nz = (nb.dx != 0) + (nb.dy != 0);
            if (nz == 1) face_bytes = nb.send_bytes;
            else corner_bytes = nb.send_bytes;
        }
        EXPECT_EQ(face_bytes, 8u * 8u);  // 8 points x 8 bytes
        EXPECT_EQ(corner_bytes, 8u);     // 1 point
        EXPECT_GT(face_bytes, corner_bytes * 4);
    });
}

TEST(Dmda, StarStencilHasOnlyFaceNeighbors) {
    World w(8);
    w.run([](Comm& c) {
        DMDA da(c, 3, GridSize{8, 8, 8}, 1, 1, Stencil::Star);
        for (const auto& nb : da.neighbors()) {
            EXPECT_EQ((nb.dx != 0) + (nb.dy != 0) + (nb.dz != 0), 1);
        }
        // Interior rank of a 2x2x2 grid: every rank has exactly 3 face
        // neighbors (one per axis).
        EXPECT_EQ(da.neighbors().size(), 3u);
    });
}

TEST(Dmda, SendSlabIsNoncontiguousForYFaces) {
    // A y-face slab of a 2-D grid is strided in memory: one block per x-row
    // would be contiguous, but a x-face (column) slab has one block per y.
    World w(4);
    w.run([](Comm& c) {
        DMDA da(c, 2, GridSize{16, 16, 1}, 1, 1, Stencil::Star);
        for (const auto& nb : da.neighbors()) {
            if (nb.dx != 0) {
                // Column slab: sw columns over ym rows -> ym blocks.
                EXPECT_EQ(nb.send_blocks, static_cast<std::uint64_t>(da.owned().ym));
            } else {
                // Row slab: contiguous rows merge into one block per row,
                // and full-width rows merge entirely.
                EXPECT_LE(nb.send_blocks, static_cast<std::uint64_t>(da.owned().xm));
            }
        }
    });
}

TEST(Dmda, StencilWidthLargerThanLocalExtentRejected) {
    World w(4);
    EXPECT_THROW(w.run([](Comm& c) {
                     // 4 ranks on 4 points in x: local xm = 1 < sw = 2.
                     DMDA da(c, 1, GridSize{4, 1, 1}, 1, 2, Stencil::Star);
                 }),
                 nncomm::Error);
}

TEST(Dmda, InvalidArgumentsRejected) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) { DMDA da(c, 4, GridSize{4, 4, 4}, 1, 1, Stencil::Star); }),
                 nncomm::Error);
    EXPECT_THROW(w.run([](Comm& c) { DMDA da(c, 2, GridSize{4, 4, 1}, 0, 1, Stencil::Star); }),
                 nncomm::Error);
    EXPECT_THROW(w.run([](Comm& c) { DMDA da(c, 1, GridSize{4, 2, 1}, 1, 1, Stencil::Star); }),
                 nncomm::Error);
}

}  // namespace
