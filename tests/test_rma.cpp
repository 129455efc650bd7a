// One-sided RMA: window lifecycle, epoch synchronization, and the
// put-based persistent plans built on top (runtime/win.cpp +
// coll/persistent.cpp RMA branch).
//
// Correctness strategy mirrors the rendezvous suite: every one-sided
// exchange is checked bit-for-bit against either an analytic expectation
// or the identical exchange run through the two-sided path, and the rt_rma
// counters attest the traffic actually rode the window (puts + fences,
// zero deliveries, zero matching). The plan tests sweep the full
// schedule-perturbation matrix; registered under the "stress" label so the
// asan-stress/tsan-stress presets race the epoch machinery under
// sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "coll/persistent.hpp"
#include "petsckit/dmda.hpp"
#include "petsckit/mat.hpp"
#include "petsckit/scatter.hpp"
#include "runtime/comm.hpp"
#include "runtime/win.hpp"

namespace {

using namespace nncomm;
using dt::Datatype;
using pk::Index;
using pk::IndexSet;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;
using rt::Comm;
using rt::SchedulePolicy;
using rt::Win;
using rt::World;

/// Deterministic per-(seed, rank, dest, index) payload byte.
std::uint8_t mix(std::uint64_t seed, int src, int dst, std::size_t i) {
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(src) * 131 +
                      static_cast<std::uint64_t>(dst) * 31 + i;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    return static_cast<std::uint8_t>(x >> 56);
}

// ---------------------------------------------------------------------------
// window lifecycle and raw one-sided transfers

TEST(Win, CreateExposesPerRankRegions) {
    constexpr int kRanks = 4;
    World w(kRanks);
    w.run([&](Comm& c) {
        const int r = c.rank();
        std::vector<std::uint8_t> region(128 + 32 * static_cast<std::size_t>(r), 0);
        Win win = Win::create(c, region.data(), region.size());
        ASSERT_TRUE(win.valid());
        EXPECT_EQ(win.rank(), r);
        EXPECT_EQ(win.size(), kRanks);
        for (int t = 0; t < kRanks; ++t) {
            EXPECT_EQ(win.region_bytes(t), 128u + 32u * static_cast<unsigned>(t));
        }
        win.fence();  // collective teardown barrier before regions die
    });
}

TEST(Win, NullRegionExposesNothing) {
    World w(2);
    w.run([&](Comm& c) {
        std::vector<std::uint8_t> region(64, 0);
        const bool exposes = c.rank() == 0;
        Win win = Win::create(c, exposes ? region.data() : nullptr,
                              exposes ? region.size() : 0);
        EXPECT_EQ(win.region_bytes(0), 64u);
        EXPECT_EQ(win.region_bytes(1), 0u);
        win.fence();
    });
}

TEST(Win, OutOfBoundsTranslateThrows) {
    World w(2);
    EXPECT_THROW(w.run([&](Comm& c) {
                     std::vector<std::uint8_t> region(64, 0);
                     Win win = Win::create(c, region.data(), region.size());
                     // 60 + 8 > 64: the fused pack entry must reject it
                     // before any byte lands.
                     if (c.rank() == 0) (void)win.translate(1, 60, 8);
                 }),
                 nncomm::Error);
}

TEST(Win, PutFenceMakesBytesVisibleEverywhere) {
    constexpr int kRanks = 4;
    World w(kRanks);
    w.run([&](Comm& c) {
        const int r = c.rank();
        // Slot layout: 4 bytes per source rank in every region.
        std::vector<std::uint8_t> region(4 * kRanks, 0);
        Win win = Win::create(c, region.data(), region.size());
        std::array<std::uint8_t, 4> payload;
        payload.fill(static_cast<std::uint8_t>(r + 1));
        for (int t = 0; t < kRanks; ++t) {
            win.put(payload.data(), payload.size(), t, 4 * static_cast<std::size_t>(r));
        }
        win.fence();
        for (int s = 0; s < kRanks; ++s) {
            for (int b = 0; b < 4; ++b) {
                EXPECT_EQ(region[static_cast<std::size_t>(4 * s + b)],
                          static_cast<std::uint8_t>(s + 1))
                    << "source " << s;
            }
        }
        const StatCounters& cnt = c.counters();
        EXPECT_EQ(cnt.rt_rma_puts, static_cast<std::uint64_t>(kRanks));
        EXPECT_EQ(cnt.rt_rma_put_bytes, 4u * kRanks);
        EXPECT_GE(cnt.rt_rma_fences, 1u);
        win.fence();  // keep regions alive until every reader is done
    });
}

TEST(Win, PscwRingEpoch) {
    constexpr int kRanks = 4;
    World w(kRanks);
    w.run([&](Comm& c) {
        const int r = c.rank();
        const int left = (r + kRanks - 1) % kRanks;
        const int right = (r + 1) % kRanks;
        std::vector<std::uint64_t> region(kRanks, 0);
        Win win = Win::create(c, region.data(), region.size() * sizeof(std::uint64_t));
        // Exposure to my left neighbor only; access to my right neighbor.
        win.post({left});
        win.start({right});
        const std::uint64_t v = 1000u + static_cast<std::uint64_t>(r);
        win.put(&v, sizeof(v), right, sizeof(std::uint64_t) * static_cast<std::size_t>(r));
        win.complete();
        win.wait();
        EXPECT_EQ(region[static_cast<std::size_t>(left)],
                  1000u + static_cast<std::uint64_t>(left));
        EXPECT_GE(c.counters().rt_rma_pscw_epochs, 1u);
        win.fence();
    });
}

// Property: a put-everything-then-fence exchange lands bit-identically to
// the same traffic moved through two-sided send/recv.
TEST(Win, PutExchangeBitIdenticalToTwoSided) {
    constexpr int kRanks = 4;
    for (std::uint64_t seed : {1ull, 42ull, 1009ull}) {
        World w(kRanks);
        w.run([&](Comm& c) {
            const int r = c.rank();
            auto vol = [](int src, int dst) {
                return static_cast<std::size_t>(96 + 32 * ((src + 2 * dst) % 3));
            };
            // Receive layout: bytes from source s start at the prefix sum
            // of volumes from sources < s — every rank derives every
            // offset analytically, no exchange needed.
            std::vector<std::size_t> off(kRanks + 1, 0);
            for (int s = 0; s < kRanks; ++s) off[s + 1] = off[s] + vol(s, r);
            std::vector<std::uint8_t> rma_buf(off[kRanks], 0), two_buf(off[kRanks], 0);

            Win win = Win::create(c, rma_buf.data(), rma_buf.size());
            std::vector<std::vector<std::uint8_t>> out(kRanks);
            for (int d = 0; d < kRanks; ++d) {
                out[d].resize(vol(r, d));
                for (std::size_t i = 0; i < out[d].size(); ++i) {
                    out[d][i] = mix(seed, r, d, i);
                }
                std::size_t doff = 0;
                for (int s = 0; s < r; ++s) doff += vol(s, d);
                win.put(out[d].data(), out[d].size(), d, doff);
            }
            win.fence();

            constexpr int kTag = 9;
            for (int d = 0; d < kRanks; ++d) c.send_n(out[d].data(), out[d].size(), d, kTag);
            for (int s = 0; s < kRanks; ++s) {
                c.recv_n(two_buf.data() + off[s], vol(s, r), s, kTag);
            }
            EXPECT_EQ(0, std::memcmp(rma_buf.data(), two_buf.data(), rma_buf.size()))
                << "seed " << seed;
            win.fence();
        });
    }
}

// ---------------------------------------------------------------------------
// put-based persistent plans

TEST(RmaPlan, ScheduleShapePinned) {
    World w(4);
    w.run([&](Comm& c) {
        const auto n = static_cast<std::size_t>(c.size());
        const int r = c.rank();
        std::vector<std::size_t> counts(n, 0);
        std::vector<std::ptrdiff_t> displs(n, 0);
        std::vector<Datatype> types(n, Datatype::byte());
        // Two remote destinations, one zero edge, no self traffic.
        counts[static_cast<std::size_t>((r + 1) % 4)] = 512;
        counts[static_cast<std::size_t>((r + 2) % 4)] = 8192;
        displs[static_cast<std::size_t>((r + 2) % 4)] = 512;
        std::vector<std::size_t> rcounts(n, 0);
        std::vector<std::ptrdiff_t> rdispls(n, 0);
        rcounts[static_cast<std::size_t>((r + 3) % 4)] = 512;
        rcounts[static_cast<std::size_t>((r + 2) % 4)] = 8192;
        rdispls[static_cast<std::size_t>((r + 2) % 4)] = 512;
        std::vector<std::uint8_t> src(8704, 1), dst(8704, 0);
        coll::AlltoallwPlan plan(c, counts, displs, types, rcounts, rdispls, types,
                                 coll::PlanTransport::Rma);
        ASSERT_TRUE(plan.rma());
        plan.execute(src.data(), dst.data());

        // Op census: open fence first, puts for the two nonzero
        // destinations, close fence, unpacks for the two nonzero sources —
        // and not a single matched Send/Recv anywhere.
        std::size_t fences = 0, puts = 0, unpacks = 0, sends = 0, recvs = 0;
        std::size_t first_fence = SIZE_MAX, last_put = 0, close_fence = 0, first_unpack = SIZE_MAX;
        const auto& ops = plan.schedule().ops;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            switch (ops[i].kind) {
                case coll::ScheduleOpKind::Fence:
                    if (fences == 0) first_fence = i; else close_fence = i;
                    ++fences;
                    break;
                case coll::ScheduleOpKind::Put: ++puts; last_put = i; break;
                case coll::ScheduleOpKind::Unpack: ++unpacks; first_unpack = std::min(first_unpack, i); break;
                case coll::ScheduleOpKind::Send: ++sends; break;
                case coll::ScheduleOpKind::Recv: ++recvs; break;
                default: break;
            }
        }
        EXPECT_EQ(fences, 2u);
        EXPECT_EQ(puts, 2u);
        EXPECT_EQ(unpacks, 2u);
        EXPECT_EQ(sends, 0u);
        EXPECT_EQ(recvs, 0u);
        EXPECT_EQ(first_fence, 0u);
        EXPECT_LT(last_put, close_fence);
        EXPECT_LT(close_fence, first_unpack);
        c.barrier();
    });
}

TEST(RmaPlan, SteadyStateMovesZeroTwoSidedMessages) {
    World w(4);
    w.run([&](Comm& c) {
        const auto n = static_cast<std::size_t>(c.size());
        const int r = c.rank();
        std::vector<std::size_t> counts(n, 0);
        std::vector<std::ptrdiff_t> displs(n, 0);
        std::vector<Datatype> types(n, Datatype::byte());
        counts[static_cast<std::size_t>((r + 1) % 4)] = 2048;
        std::vector<std::size_t> rcounts(n, 0);
        rcounts[static_cast<std::size_t>((r + 3) % 4)] = 2048;
        std::vector<std::uint8_t> src(2048, static_cast<std::uint8_t>(r)), dst(2048, 0);
        coll::AlltoallwPlan plan(c, counts, displs, types, rcounts, displs, types,
                                 coll::PlanTransport::Rma);
        ASSERT_TRUE(plan.rma());

        c.reset_stats();
        plan.execute(src.data(), dst.data());
        const StatCounters cnt = c.counters();
        // The absence is the point: an execute is puts and fences only —
        // no lane deliveries, no zero-copy matches, no envelopes.
        EXPECT_EQ(cnt.rt_lane_fast_deliveries, 0u);
        EXPECT_EQ(cnt.rt_lane_overflow_deliveries, 0u);
        EXPECT_EQ(cnt.rt_zero_copy_msgs, 0u);
        EXPECT_EQ(cnt.rt_rma_puts, 1u);
        EXPECT_EQ(cnt.rt_rma_put_bytes, 2048u);
        EXPECT_EQ(cnt.rt_rma_fences, 2u);
        EXPECT_EQ(cnt.coll_rma_plan_executes, 1u);
        for (std::size_t i = 0; i < dst.size(); ++i) {
            ASSERT_EQ(dst[i], static_cast<std::uint8_t>((r + 3) % 4));
        }
        c.barrier();
    });
}

// Full perturbation matrix: 8 seeds x thresholds {0, 32 KiB, never} over a
// mixed strided/contiguous/self/zero-edge pattern, RMA plan checked
// bit-identically against a two-sided twin on every execute. The
// rendezvous threshold steers the offset exchange and the twin's frozen
// eager/rendezvous decisions.
TEST(RmaPlan, StressMatrixBitIdenticalUnderPerturbation) {
    constexpr int kRanks = 4;
    constexpr std::size_t kStride = 64;   // doubles picked by the strided type
    constexpr std::size_t kContig = 32;   // contiguous doubles to the opposite rank
    constexpr std::size_t kSelf = 16;
    const std::size_t thresholds[] = {0, 32 * 1024, std::numeric_limits<std::size_t>::max()};
    const std::uint64_t seeds[] = {1, 2, 3, 5, 7, 11, 13, 17};
    for (std::uint64_t seed : seeds) {
        for (std::size_t thr : thresholds) {
            World w(kRanks);
            w.set_schedule(SchedulePolicy::perturb(seed, 1 + static_cast<int>(seed % 3)));
            w.run([&](Comm& c) {
                c.set_rendezvous_threshold(thr);
                const int r = c.rank();
                const auto n = static_cast<std::size_t>(c.size());
                const auto right = static_cast<std::size_t>((r + 1) % kRanks);
                const auto opp = static_cast<std::size_t>((r + 2) % kRanks);
                const auto left = static_cast<std::size_t>((r + 3) % kRanks);
                const auto self = static_cast<std::size_t>(r);

                std::vector<double> src(512);
                for (std::size_t i = 0; i < src.size(); ++i) {
                    src[i] = static_cast<double>(seed % 97) +
                             static_cast<double>(r) * 10000.0 + static_cast<double>(i);
                }
                std::vector<std::size_t> scounts(n, 0), rcounts(n, 0);
                std::vector<std::ptrdiff_t> sdispls(n, 0), rdispls(n, 0);
                std::vector<Datatype> stypes(n, Datatype::byte()), rtypes(n, Datatype::byte());
                // right: 64 doubles picked stride-2 from offset 0
                scounts[right] = 1;
                stypes[right] = Datatype::vector(kStride, 1, 2, Datatype::float64());
                // opposite: 32 contiguous doubles from offset 128
                scounts[opp] = kContig;
                stypes[opp] = Datatype::float64();
                sdispls[opp] = 128 * static_cast<std::ptrdiff_t>(sizeof(double));
                // self: 16 contiguous doubles from offset 256; left: zero edge
                scounts[self] = kSelf;
                stypes[self] = Datatype::float64();
                sdispls[self] = 256 * static_cast<std::ptrdiff_t>(sizeof(double));

                rcounts[left] = kStride;
                rtypes[left] = Datatype::float64();
                rcounts[opp] = kContig;
                rtypes[opp] = Datatype::float64();
                rdispls[opp] = static_cast<std::ptrdiff_t>(kStride * sizeof(double));
                rcounts[self] = kSelf;
                rtypes[self] = Datatype::float64();
                rdispls[self] =
                    static_cast<std::ptrdiff_t>((kStride + kContig) * sizeof(double));

                coll::AlltoallwPlan rma_plan(c, scounts, sdispls, stypes, rcounts, rdispls,
                                             rtypes, coll::PlanTransport::Rma);
                coll::AlltoallwPlan two_plan(c, scounts, sdispls, stypes, rcounts, rdispls,
                                             rtypes, coll::PlanTransport::TwoSided);
                EXPECT_TRUE(rma_plan.rma());
                EXPECT_FALSE(two_plan.rma());

                std::vector<double> rma_dst(kStride + kContig + kSelf, 0.0);
                std::vector<double> two_dst(rma_dst.size(), 0.0);
                for (int it = 0; it < 3; ++it) {
                    rma_plan.execute(src.data(), rma_dst.data());
                    two_plan.execute(src.data(), two_dst.data());
                    ASSERT_EQ(0, std::memcmp(rma_dst.data(), two_dst.data(),
                                             rma_dst.size() * sizeof(double)))
                        << "seed " << seed << " thr " << thr << " it " << it;
                    // Spot-check against the analytic expectation too.
                    const int lrank = (r + 3) % kRanks;
                    ASSERT_DOUBLE_EQ(rma_dst[1], static_cast<double>(seed % 97) +
                                                     static_cast<double>(lrank) * 10000.0 + 2.0)
                        << "seed " << seed << " thr " << thr;
                }
                c.barrier();
            });
        }
    }
}

// Each library caller fixes the transport of the persistent plan it
// builds: VecScatter's plans (and so MatAIJ's DatatypeOptimized ghost
// scatter) ride the window; the DMDA ghost plan stays two-sided, because
// a closing fence over the whole communicator would erase its overlap.
TEST(PlanTransport, EachLibraryCallerFixesItsTransport) {
    constexpr int kRanks = 4;
    constexpr Index kN = 128;
    World w(kRanks);
    w.run([&](Comm& comm) {
        // VecScatter: both directions' plans lower onto RMA.
        Vec src(comm, 2 * kN * kRanks);
        Vec dst(comm, kN * kRanks);
        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }
        std::vector<Index> from, to;
        for (int r = 0; r < kRanks; ++r) {
            for (Index j = 0; j < kN; ++j) {
                from.push_back(r * 2 * kN + 2 * j);
                to.push_back(((r + 1) % kRanks) * kN + j);
            }
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));
        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        sc.execute_reverse(src, dst, ScatterBackend::DatatypeOptimized);
        ASSERT_NE(sc.forward_plan(), nullptr);
        ASSERT_NE(sc.reverse_plan(), nullptr);
        EXPECT_TRUE(sc.forward_plan()->rma());
        EXPECT_TRUE(sc.reverse_plan()->rma());
        const int prev = (comm.rank() + kRanks - 1) % kRanks;
        for (Index j = 0; j < kN; ++j) {
            EXPECT_DOUBLE_EQ(dst.data()[j], static_cast<double>(prev * 2 * kN + 2 * j));
        }

        // MatAIJ's ghost gather is a VecScatter plan, so its matvec closes
        // RMA epochs. Tridiagonal (2, -1, -1) times x = global index.
        const Index n = 32;
        auto layout = std::make_shared<const pk::Layout>(pk::Layout::uniform(n, kRanks));
        pk::MatAIJ m(comm, layout);
        for (Index r = m.row_range().begin; r < m.row_range().end; ++r) {
            m.set_value(r, r, 2.0);
            if (r > 0) m.set_value(r, r - 1, -1.0);
            if (r < n - 1) m.set_value(r, r + 1, -1.0);
        }
        m.assemble(ScatterBackend::DatatypeOptimized);
        Vec x(comm, n), y(comm, n);
        for (Index i = x.range().begin; i < x.range().end; ++i) {
            x.at_global(i) = static_cast<double>(i);
        }
        m.mult(x, y);  // compiles the ghost scatter's plan
        comm.barrier();
        comm.reset_stats();
        m.mult(x, y);
        const StatCounters mat = comm.counters();
        EXPECT_EQ(mat.coll_rma_plan_executes, 1u);
        EXPECT_EQ(mat.rt_rma_fences, 2u);
        for (Index i = y.range().begin; i < y.range().end; ++i) {
            const double want = i == 0 ? -1.0 : (i == n - 1 ? static_cast<double>(n) : 0.0);
            EXPECT_DOUBLE_EQ(y.at_global(i), want) << "row " << i;
        }

        // DMDA: the ghost plan moves its slabs two-sided, no fence.
        pk::DMDA da(comm, 3, pk::GridSize{16, 16, 8}, 1, 1, pk::Stencil::Box);
        Vec g = da.create_global();
        auto local = da.create_local();
        da.global_to_local(g, local);  // compiles the plan
        comm.barrier();
        comm.reset_stats();
        da.global_to_local(g, local);
        const StatCounters ghost = comm.counters();
        EXPECT_EQ(ghost.persistent_executes, 1u);
        EXPECT_EQ(ghost.coll_rma_plan_executes, 0u);
        EXPECT_EQ(ghost.rt_rma_fences, 0u);
        EXPECT_GT(ghost.rt_lane_fast_deliveries + ghost.rt_lane_overflow_deliveries +
                      ghost.rt_zero_copy_msgs,
                  0u);
        comm.barrier();
    });
}

// Regression for the lost-notify livelock: 16 rank threads oversubscribed
// onto however few cores the host has, repeatedly closing fence epochs
// whose waiters park in the timed-sleep discipline. Before the fix a
// descheduled waiter could miss the pulse and hang; the run must now
// finish (and stay correct) every time.
TEST(RmaStress, OversubscribedRepeatedExecutesNoLivelock) {
    constexpr int kRanks = 16;
    constexpr std::size_t kBytes = 256;
    World w(kRanks);
    w.set_schedule(SchedulePolicy::perturb(0x5eed, 2));
    w.run([&](Comm& c) {
        const int r = c.rank();
        const auto n = static_cast<std::size_t>(c.size());
        std::vector<std::size_t> scounts(n, 0), rcounts(n, 0);
        std::vector<std::ptrdiff_t> displs(n, 0);
        std::vector<Datatype> types(n, Datatype::byte());
        scounts[static_cast<std::size_t>((r + 1) % kRanks)] = kBytes;
        rcounts[static_cast<std::size_t>((r + kRanks - 1) % kRanks)] = kBytes;
        std::vector<std::uint8_t> src(kBytes), dst(kBytes, 0);
        coll::AlltoallwPlan plan(c, scounts, displs, types, rcounts, displs, types,
                                 coll::PlanTransport::Rma);
        for (int it = 0; it < 6; ++it) {
            for (std::size_t i = 0; i < kBytes; ++i) {
                src[i] = mix(static_cast<std::uint64_t>(it), r, 0, i);
            }
            plan.execute(src.data(), dst.data());
            const int prev = (r + kRanks - 1) % kRanks;
            for (std::size_t i = 0; i < kBytes; ++i) {
                ASSERT_EQ(dst[i], mix(static_cast<std::uint64_t>(it), prev, 0, i))
                    << "iteration " << it;
            }
        }
        c.barrier();
    });
}

}  // namespace
