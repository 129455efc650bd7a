// Nonblocking (icoll) collectives and the split-phase scatter paths:
//   - TagSpace: concurrent schedule invocations on one communicator draw
//     disjoint tag lanes (the no-collision guarantee the icoll API rests on);
//   - iallgatherv / ialltoallw / ibcast / ireduce
//     driven with test() pokes and out-of-order waits, results identical to
//     the blocking entry points;
//   - the coll_* schedule statistics (schedules built, cache hits, rounds
//     executed, overlap progress calls);
//   - VecScatter::begin/end forward and reverse on all three backends,
//     bit-for-bit against execute/execute_reverse;
//   - DMDA::global_to_local_begin/end, including the owned-region-filled-
//     at-begin contract the overlapped stencil sweeps rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/persistent.hpp"
#include "coll/schedule.hpp"
#include "petsckit/dmda.hpp"
#include "petsckit/scatter.hpp"

namespace {

using namespace nncomm;
using coll::CollConfig;
using coll::ReduceOp;
using dt::Datatype;
using pk::DMDA;
using pk::Index;
using pk::IndexSet;
using pk::InsertMode;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;
using rt::Comm;
using rt::World;

// ---------------------------------------------------------------------------
// TagSpace

TEST(TagSpace, ConcurrentInvocationsOccupyDisjointLanes) {
    World w(1);
    w.run([](Comm& c) {
        // Two schedules in flight at once (e.g. an icoll overlapped with a
        // second collective) each construct a TagSpace from the same base;
        // the epochs folded in must keep every tag of one lane distinct
        // from every tag of the other.
        coll::TagSpace a(c, rt::kInternalTagBase);
        coll::TagSpace b(c, rt::kInternalTagBase);
        EXPECT_NE(a.lane(), b.lane());
        EXPECT_GE(std::abs(a.lane() - b.lane()), rt::kEpochTagStride);
        EXPECT_EQ(a.tag(), a.lane());
        EXPECT_EQ(a.tag(7), a.lane() + 7);
        // Every legal offset stays inside the lane.
        for (int off : {0, 1, rt::kEpochTagStride - 1}) {
            const int ta = a.tag(off);
            for (int boff : {0, 1, rt::kEpochTagStride - 1}) {
                EXPECT_NE(ta, b.tag(boff));
            }
        }
        // Offsets outside the lane would bleed into a neighboring epoch.
        EXPECT_THROW(a.tag(rt::kEpochTagStride), nncomm::Error);
        EXPECT_THROW(a.tag(-1), nncomm::Error);
    });
}

// ---------------------------------------------------------------------------
// icoll correctness against the blocking entry points

// Nonuniform allgatherv shape shared by the tests below.
void make_vshape(int n, std::vector<std::size_t>& counts, std::vector<std::size_t>& displs,
                 std::size_t& total) {
    counts.assign(static_cast<std::size_t>(n), 0);
    displs.assign(static_cast<std::size_t>(n), 0);
    total = 0;
    for (int r = 0; r < n; ++r) {
        counts[static_cast<std::size_t>(r)] = (r == 1) ? 64u : static_cast<std::size_t>(r + 2);
        displs[static_cast<std::size_t>(r)] = total;
        total += counts[static_cast<std::size_t>(r)];
    }
}

TEST(Icoll, IallgathervMatchesBlockingWithOverlapPokes) {
    const int n = 5;
    World w(n);
    w.run([&](Comm& c) {
        std::vector<std::size_t> counts, displs;
        std::size_t total = 0;
        make_vshape(n, counts, displs, total);
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> contrib(mine);
        for (std::size_t i = 0; i < mine; ++i) {
            contrib[i] = c.rank() + static_cast<double>(i) * 0.125;
        }

        std::vector<double> ref(total, -1.0);
        coll::allgatherv(c, contrib.data(), mine, Datatype::float64(), ref.data(), counts,
                         displs, Datatype::float64());

        std::vector<double> out(total, -2.0);
        coll::CollRequest req = coll::iallgatherv(c, contrib.data(), mine,
                                                  Datatype::float64(), out.data(), counts,
                                                  displs, Datatype::float64());
        EXPECT_TRUE(req.valid());
        // Overlap window: poke progress like an application would between
        // slabs of interior compute, then complete.
        for (int poke = 0; poke < 64 && !req.test(); ++poke) {
        }
        req.wait();
        EXPECT_TRUE(req.done());
        EXPECT_FALSE(req.active());
        EXPECT_EQ(std::memcmp(out.data(), ref.data(), total * sizeof(double)), 0);
    });
}

TEST(Icoll, RootedCollectivesMatchBlocking) {
    const int n = 6;
    World w(n);
    w.run([&](Comm& c) {
        // ibcast
        std::vector<std::int64_t> buf(9, c.rank() == 3 ? 41 : -1);
        coll::CollRequest bc = coll::ibcast(c, buf.data(), buf.size() * 8, Datatype::byte(), 3);
        bc.wait();
        for (std::int64_t v : buf) EXPECT_EQ(v, 41);

        // ireduce (binomial tree, in place at the root).
        std::vector<std::int64_t> acc(4);
        for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i] = c.rank() + static_cast<std::int64_t>(i) * 100;
        }
        coll::CollRequest rr = coll::ireduce(c, acc.data(), acc.size(), ReduceOp::Sum, 2);
        rr.wait();
        if (c.rank() == 2) {
            const std::int64_t ranksum = static_cast<std::int64_t>(n) * (n - 1) / 2;
            for (std::size_t i = 0; i < acc.size(); ++i) {
                EXPECT_EQ(acc[i], ranksum + static_cast<std::int64_t>(i) * 100 * n);
            }
        }
    });
}

// Two alltoallw schedules concurrently in flight on one communicator,
// completed out of order. TagSpace gives each start() a fresh epoch lane,
// so the first schedule's straggling traffic can never satisfy the
// second's receives — this is the functional face of the TagSpace test.
TEST(Icoll, ConcurrentSchedulesOutOfOrderWaits) {
    const int n = 5;
    World w(n);
    w.run([&](Comm& c) {
        const auto un = static_cast<std::size_t>(n);
        std::vector<std::size_t> scounts(un), rcounts(un);
        std::vector<std::ptrdiff_t> sdispls(un), rdispls(un);
        std::vector<Datatype> types(un, Datatype::int32());
        std::size_t stotal = 0, rtotal = 0;
        for (int p = 0; p < n; ++p) {
            const auto up = static_cast<std::size_t>(p);
            scounts[up] = static_cast<std::size_t>((c.rank() + 2 * p) % 5 + 1);
            rcounts[up] = static_cast<std::size_t>((p + 2 * c.rank()) % 5 + 1);
            sdispls[up] = static_cast<std::ptrdiff_t>(stotal * 4);
            rdispls[up] = static_cast<std::ptrdiff_t>(rtotal * 4);
            stotal += scounts[up];
            rtotal += rcounts[up];
        }
        auto fill = [&](std::vector<std::int32_t>& sendbuf, int salt) {
            sendbuf.assign(stotal, 0);
            for (int p = 0; p < n; ++p) {
                const auto up = static_cast<std::size_t>(p);
                for (std::size_t i = 0; i < scounts[up]; ++i) {
                    sendbuf[static_cast<std::size_t>(sdispls[up]) / 4 + i] =
                        salt * 100000 + c.rank() * 1000 + p * 10 + static_cast<int>(i);
                }
            }
        };
        auto verify = [&](const std::vector<std::int32_t>& recvbuf, int salt) {
            for (int p = 0; p < n; ++p) {
                const auto up = static_cast<std::size_t>(p);
                for (std::size_t i = 0; i < rcounts[up]; ++i) {
                    EXPECT_EQ(recvbuf[static_cast<std::size_t>(rdispls[up]) / 4 + i],
                              salt * 100000 + p * 1000 + c.rank() * 10 + static_cast<int>(i))
                        << "salt " << salt << " from rank " << p;
                }
            }
        };

        CollConfig round_robin, binned;
        round_robin.alltoallw_algo = coll::AlltoallwAlgo::RoundRobin;
        binned.alltoallw_algo = coll::AlltoallwAlgo::Binned;
        binned.small_msg_threshold = 12;

        std::vector<std::int32_t> send1, send2, recv1(rtotal, -1), recv2(rtotal, -1);
        fill(send1, 1);
        fill(send2, 2);
        coll::CollRequest r1 = coll::ialltoallw(c, send1.data(), scounts, sdispls, types,
                                                recv1.data(), rcounts, rdispls, types,
                                                round_robin);
        coll::CollRequest r2 = coll::ialltoallw(c, send2.data(), scounts, sdispls, types,
                                                recv2.data(), rcounts, rdispls, types, binned);
        // Complete the second schedule first.
        r2.wait();
        verify(recv2, 2);
        r1.wait();
        verify(recv1, 1);
    });
}

// ---------------------------------------------------------------------------
// schedule statistics

TEST(Icoll, ScheduleCountersAccumulate) {
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        const StatCounters before = c.counters();

        // One icoll with explicit overlap pokes: counts a schedule build,
        // at least one full round, and every pre-completion test() call.
        std::vector<std::size_t> counts, displs;
        std::size_t total = 0;
        make_vshape(n, counts, displs, total);
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> contrib(mine, c.rank() + 0.5), out(total, -1.0);
        coll::CollRequest req = coll::iallgatherv(c, contrib.data(), mine,
                                                  Datatype::float64(), out.data(), counts,
                                                  displs, Datatype::float64());
        std::uint64_t pokes = 0;
        while (!req.test()) ++pokes;
        req.wait();

        const StatCounters after = c.counters();
        EXPECT_GE(after.coll_schedules_built - before.coll_schedules_built, 1u);
        EXPECT_GE(after.coll_rounds_executed - before.coll_rounds_executed, 1u);
        EXPECT_GE(after.coll_overlap_progress_calls - before.coll_overlap_progress_calls,
                  pokes);

        // Persistent plan, on either transport: one compiled schedule,
        // every re-execute a cache hit (no new build).
        const auto un = static_cast<std::size_t>(n);
        std::vector<std::size_t> scounts(un, 3), rcounts(un, 3);
        std::vector<std::ptrdiff_t> sdispls(un), rdispls(un);
        std::vector<Datatype> types(un, Datatype::int32());
        for (int p = 0; p < n; ++p) {
            sdispls[static_cast<std::size_t>(p)] = p * 12;
            rdispls[static_cast<std::size_t>(p)] = p * 12;
        }
        for (auto transport : {coll::PlanTransport::TwoSided, coll::PlanTransport::Rma}) {
            coll::AlltoallwPlan plan(c, scounts, sdispls, types, rcounts, rdispls, types,
                                     transport);
            std::vector<std::int32_t> sendbuf(un * 3), recvbuf(un * 3);
            for (std::size_t i = 0; i < sendbuf.size(); ++i) {
                sendbuf[i] = c.rank() * 1000 + static_cast<int>(i);
            }
            const StatCounters plan_before = c.counters();
            constexpr int kExecutes = 4;
            for (int e = 0; e < kExecutes; ++e) {
                coll::CollRequest h = plan.begin(sendbuf.data(), recvbuf.data());
                h.test();  // one overlap poke through the plan's handle
                h.wait();
            }
            const StatCounters plan_after = c.counters();
            EXPECT_EQ(plan.executes(), static_cast<std::uint64_t>(kExecutes));
            EXPECT_EQ(plan_after.coll_schedules_built - plan_before.coll_schedules_built, 1u);
            EXPECT_EQ(plan_after.coll_schedule_cache_hits - plan_before.coll_schedule_cache_hits,
                      static_cast<std::uint64_t>(kExecutes - 1));
        }
    });
}

// ---------------------------------------------------------------------------
// split-phase VecScatter

constexpr ScatterBackend kBackends[] = {ScatterBackend::HandTuned,
                                        ScatterBackend::DatatypeBaseline,
                                        ScatterBackend::DatatypeOptimized};

TEST(SplitPhase, VecScatterBeginEndBitIdenticalToExecute) {
    for (ScatterBackend backend : kBackends) {
        const int n = 4;
        World w(n);
        w.run([&](Comm& c) {
            const Index len = 32;
            Vec src(c, len), dst_block(c, len), dst_split(c, len);
            for (Index i = src.range().begin; i < src.range().end; ++i) {
                src.at_global(i) = std::sqrt(static_cast<double>(i) + 0.375);
            }
            // Reverse permutation: dst[len-1-k] = src[k].
            VecScatter sc(src, IndexSet::identity(len), dst_block,
                          IndexSet::stride(len - 1, -1, len));

            // Forward: blocking vs begin + pokes + end, bit for bit.
            sc.execute(src, dst_block, backend);
            pk::ScatterRequest fwd = sc.begin(src, dst_split, backend);
            EXPECT_TRUE(fwd.active());
            for (int poke = 0; poke < 32 && !fwd.test(); ++poke) {
            }
            fwd.end();
            EXPECT_FALSE(fwd.active());
            ASSERT_EQ(dst_block.local_size(), dst_split.local_size());
            EXPECT_EQ(std::memcmp(dst_split.data(), dst_block.data(),
                                  static_cast<std::size_t>(dst_block.local_size()) *
                                      sizeof(double)),
                      0)
                << pk::scatter_backend_name(backend);

            // Reverse: scatter back into cleared sources, blocking vs split.
            Vec src_block(c, len), src_split(c, len);
            sc.execute_reverse(src_block, dst_block, backend);
            pk::ScatterRequest rev = sc.begin_reverse(src_split, dst_split, backend);
            rev.end();
            EXPECT_EQ(std::memcmp(src_split.data(), src_block.data(),
                                  static_cast<std::size_t>(src_block.local_size()) *
                                      sizeof(double)),
                      0)
                << pk::scatter_backend_name(backend);
            // The round trip restores the original values exactly.
            EXPECT_EQ(std::memcmp(src_split.data(), src.data(),
                                  static_cast<std::size_t>(src.local_size()) * sizeof(double)),
                      0);
        });
    }
}

TEST(SplitPhase, HandTunedAddModeAccumulatesAfterEnd) {
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        const Index len = 20;
        Vec src(c, len), dst(c, len);
        for (Index i = src.range().begin; i < src.range().end; ++i) {
            src.at_global(i) = static_cast<double>(i);
        }
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            dst.at_global(i) = 1000.0;
        }
        VecScatter sc(src, IndexSet::identity(len), dst, IndexSet::stride(len - 1, -1, len));
        pk::ScatterRequest req =
            sc.begin(src, dst, ScatterBackend::HandTuned, InsertMode::Add);
        req.end();
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), 1000.0 + static_cast<double>(len - 1 - i));
        }
    });
}

// ---------------------------------------------------------------------------
// split-phase DMDA ghost exchange

TEST(SplitPhase, DmdaGlobalToLocalBeginFillsOwnedRegionImmediately) {
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        DMDA da(c, 2, {.m = 17, .n = 13}, 1, 1, pk::Stencil::Box);
        Vec g = da.create_global();
        const pk::GridBox& o = da.owned();
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                g.at_global(da.global_index(i, j, 0)) =
                    static_cast<double>(da.global_index(i, j, 0)) + 0.25;
            }
        }

        std::vector<double> ref = da.create_local();
        da.global_to_local(g, ref);

        std::vector<double> split = da.create_local();
        coll::CollRequest req = da.global_to_local_begin(g, split);
        // Contract the overlapped stencil sweeps rely on: the owned region
        // is already filled when begin returns (only ghost slabs are still
        // in flight).
        for (Index j = o.ys; j < o.ys + o.ym; ++j) {
            for (Index i = o.xs; i < o.xs + o.xm; ++i) {
                EXPECT_EQ(split[static_cast<std::size_t>(da.local_index(i, j, 0))],
                          static_cast<double>(da.global_index(i, j, 0)) + 0.25);
            }
        }
        for (int poke = 0; poke < 32 && !req.test(); ++poke) {
        }
        DMDA::global_to_local_end(req);
        EXPECT_EQ(std::memcmp(split.data(), ref.data(), ref.size() * sizeof(double)), 0);
    });
}

}  // namespace
