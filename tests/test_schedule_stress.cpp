// Schedule-perturbation stress suite: every collective, every VecScatter
// backend and the persistent alltoallw plan driven under seeded schedule
// perturbation and fault injection (runtime/schedule.hpp) — deferred
// deliveries, sender stalls, delayed wakeups, and bounded same-pair
// reordering of collective traffic. The fixed seed set below is the gate:
// each (seed, level) pair names a reproducible family of adversarial
// schedules, and the regression tests for the epoch-tag and barrier-partner
// fixes live here because only a perturbed schedule makes those bugs
// reachable.
// The whole matrix additionally sweeps the transfer protocol: threshold 0
// (every nonempty send attempts zero-copy rendezvous) and threshold
// SIZE_MAX (pure buffered eager). Under an active SchedulePolicy the
// rendezvous path must degrade cleanly to buffered delivery, so both
// settings have to produce identical results on every schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/persistent.hpp"
#include "coll/schedule.hpp"
#include "netsim/model.hpp"
#include "petsckit/scatter.hpp"
#include "runtime/sparse.hpp"

namespace {

using namespace nncomm;
using coll::AllgathervAlgo;
using coll::AlltoallwAlgo;
using coll::CollConfig;
using coll::ReduceOp;
using dt::Datatype;
using pk::Index;
using pk::IndexSet;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;
using rt::Comm;
using rt::SchedulePolicy;
using rt::World;

// The fixed seed set the tier-1 gate runs. Eight seeds at every
// perturbation level keeps the sweep deterministic and reproducible:
// a failure names its (seed, level) pair in the test name.
constexpr std::uint64_t kSeeds[] = {1, 7, 23, 42, 101, 271, 1009, 65537};

// Both protocol extremes: 0 = every nonempty send attempts rendezvous,
// SIZE_MAX = pure buffered eager. Under a deferring SchedulePolicy both
// must behave identically (rendezvous degrades to buffered).
constexpr std::size_t kThresholds[] = {0, std::numeric_limits<std::size_t>::max()};

class Perturbed
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, std::size_t>> {
protected:
    std::uint64_t seed() const { return std::get<0>(GetParam()); }
    int level() const { return std::get<1>(GetParam()); }
    std::size_t threshold() const { return std::get<2>(GetParam()); }
    SchedulePolicy policy() const { return SchedulePolicy::perturb(seed(), level()); }
};

INSTANTIATE_TEST_SUITE_P(Seeds, Perturbed,
                         ::testing::Combine(::testing::ValuesIn(kSeeds),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::ValuesIn(kThresholds)));

// Level-2-only sweep for the heavier fixtures (scatter backends, persistent
// plans, netsim-routed schedules), still crossed with both protocols.
class PerturbedSeed
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
protected:
    std::uint64_t seed() const { return std::get<0>(GetParam()); }
    std::size_t threshold() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Seeds, PerturbedSeed,
                         ::testing::Combine(::testing::ValuesIn(kSeeds),
                                            ::testing::ValuesIn(kThresholds)));

// ---------------------------------------------------------------------------
// point-to-point under perturbation

TEST_P(Perturbed, UserFifoPreservedAndEventsRecorded) {
    // The reorder fault must never touch user-context traffic: a same-tag
    // stream between one (source, dest) pair arrives exactly in post order,
    // while the sched_* counters prove the schedule actually perturbed.
    constexpr int kMsgs = 48;
    World w(4);
    w.set_schedule(policy());
    std::atomic<std::uint64_t> pending{0}, deferrals{0};
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        const int n = c.size();
        const int to = (c.rank() + 1) % n;
        const int from = (c.rank() + n - 1) % n;
        std::vector<rt::Request> sends;
        std::vector<int> out(kMsgs);
        for (int i = 0; i < kMsgs; ++i) {
            out[static_cast<std::size_t>(i)] = c.rank() * 1000 + i;
            sends.push_back(c.isend(&out[static_cast<std::size_t>(i)], sizeof(int),
                                    Datatype::byte(), to, 5));
        }
        for (int i = 0; i < kMsgs; ++i) {
            int v = -1;
            rt::RecvStatus st = c.recv_n(&v, 1, from, 5);
            EXPECT_EQ(v, from * 1000 + i);  // same (source, tag) => FIFO
            EXPECT_EQ(st.source, from);
        }
        c.waitall(sends);
        pending += c.counters().sched_pending_sends;
        deferrals += c.counters().sched_deferrals;
    });
    // Every send went through the in-flight queue; with defer_prob >= 0.25
    // over 192 draws, a zero deferral count means the RNG is not wired in.
    EXPECT_GE(pending.load(), static_cast<std::uint64_t>(4 * kMsgs));
    EXPECT_GT(deferrals.load(), 0u);
}

TEST_P(Perturbed, ProbeSeesPendingDeliveries) {
    World w(2);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        if (c.rank() == 0) {
            const int v = 31;
            c.send_n(&v, 1, 1, 17);
        } else {
            // The probe itself must drive the delivery engine: no receive is
            // posted, so nobody else will move the message.
            rt::ProbeStatus st = c.probe(0, 17);
            EXPECT_TRUE(st.found);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, 17);
            EXPECT_EQ(st.bytes, sizeof(int));
            int v = 0;
            c.recv_n(&v, 1, 0, 17);
            EXPECT_EQ(v, 31);
        }
    });
}

// ---------------------------------------------------------------------------
// collectives under perturbation

TEST_P(Perturbed, BasicCollectivesAgree) {
    const int n = 5;
    World w(n);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        // bcast
        std::vector<int> b(8, c.rank() == 2 ? 99 : -1);
        coll::bcast(c, b.data(), b.size() * 4, Datatype::byte(), 2);
        for (int v : b) EXPECT_EQ(v, 99);

        // reduce + allreduce
        long sum = c.rank();
        coll::reduce(c, &sum, 1, ReduceOp::Sum, 1);
        if (c.rank() == 1) {
            EXPECT_EQ(sum, n * (n - 1) / 2);
        }
        long all = c.rank();
        coll::allreduce(c, &all, 1, ReduceOp::Max);
        EXPECT_EQ(all, n - 1);
    });
}

void check_allgatherv(World& w, int n, AllgathervAlgo algo, std::size_t thr) {
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(thr);
        CollConfig cfg;
        cfg.allgatherv_algo = algo;
        std::vector<std::size_t> counts(static_cast<std::size_t>(n));
        std::vector<std::size_t> displs(static_cast<std::size_t>(n));
        std::size_t total = 0;
        for (int r = 0; r < n; ++r) {
            // Nonuniform: rank 1 contributes an outlier-sized block.
            counts[static_cast<std::size_t>(r)] = (r == 1) ? 96u : static_cast<std::size_t>(r + 1);
            displs[static_cast<std::size_t>(r)] = total;
            total += counts[static_cast<std::size_t>(r)];
        }
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> contrib(mine, c.rank() + 0.5);
        std::vector<double> out(total, -1.0);
        coll::allgatherv(c, contrib.data(), mine, Datatype::float64(), out.data(), counts,
                         displs, Datatype::float64(), cfg);
        for (int r = 0; r < n; ++r) {
            for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
                EXPECT_DOUBLE_EQ(out[displs[static_cast<std::size_t>(r)] + i], r + 0.5)
                    << "algo=" << static_cast<int>(algo) << " rank block " << r;
            }
        }
    });
}

TEST_P(Perturbed, AllgathervEveryAlgorithm) {
    {
        World w(5);
        w.set_schedule(policy());
        check_allgatherv(w, 5, AllgathervAlgo::Ring, threshold());
        check_allgatherv(w, 5, AllgathervAlgo::Dissemination, threshold());
        check_allgatherv(w, 5, AllgathervAlgo::Auto, threshold());
    }
    {
        World w(8);  // recursive doubling needs power-of-two ranks
        w.set_schedule(policy());
        check_allgatherv(w, 8, AllgathervAlgo::RecursiveDoubling, threshold());
    }
}

void check_alltoallw(Comm& c, AlltoallwAlgo algo, int salt) {
    // Rank r sends (r + dst + salt) ints to dst; volumes are nonuniform and
    // include zero-byte pairs (r + dst + salt == 0 never happens; force some
    // zeros explicitly via the modulo below).
    const int n = c.size();
    const auto un = static_cast<std::size_t>(n);
    CollConfig cfg;
    cfg.alltoallw_algo = algo;
    cfg.small_msg_threshold = 32;  // split peers across both bins
    auto vol = [&](int from, int to) -> std::size_t {
        if ((from + to + salt) % 4 == 0) return 0;  // exempted zero bin
        return static_cast<std::size_t>((from + 2 * to + salt) % 23 + 1);
    };
    std::vector<std::size_t> scounts(un), rcounts(un);
    std::vector<std::ptrdiff_t> sdispls(un), rdispls(un);
    std::vector<Datatype> types(un, Datatype::int32());
    std::size_t stotal = 0, rtotal = 0;
    for (int p = 0; p < n; ++p) {
        const auto up = static_cast<std::size_t>(p);
        scounts[up] = vol(c.rank(), p);
        rcounts[up] = vol(p, c.rank());
        sdispls[up] = static_cast<std::ptrdiff_t>(stotal * 4);
        rdispls[up] = static_cast<std::ptrdiff_t>(rtotal * 4);
        stotal += scounts[up];
        rtotal += rcounts[up];
    }
    std::vector<std::int32_t> sendbuf(stotal);
    for (int p = 0; p < n; ++p) {
        const auto up = static_cast<std::size_t>(p);
        for (std::size_t i = 0; i < scounts[up]; ++i) {
            sendbuf[static_cast<std::size_t>(sdispls[up]) / 4 + i] =
                salt * 100000 + c.rank() * 1000 + p * 10 + static_cast<int>(i % 10);
        }
    }
    std::vector<std::int32_t> recvbuf(rtotal, -1);
    coll::alltoallw(c, sendbuf.data(), scounts, sdispls, types, recvbuf.data(), rcounts,
                    rdispls, types, cfg);
    for (int p = 0; p < n; ++p) {
        const auto up = static_cast<std::size_t>(p);
        for (std::size_t i = 0; i < rcounts[up]; ++i) {
            EXPECT_EQ(recvbuf[static_cast<std::size_t>(rdispls[up]) / 4 + i],
                      salt * 100000 + p * 1000 + c.rank() * 10 + static_cast<int>(i % 10))
                << "algo=" << static_cast<int>(algo) << " from rank " << p;
        }
    }
}

TEST_P(Perturbed, AlltoallwBothAlgorithms) {
    World w(5);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        check_alltoallw(c, AlltoallwAlgo::RoundRobin, 1);
        check_alltoallw(c, AlltoallwAlgo::Binned, 2);
    });
}

// Regression for the constant-tag bug in the binned alltoallw: its sends
// are fire-and-forget nonblocking, so a straggler from invocation k can
// still be in flight when a faster rank posts invocation k+1's receives.
// Without the per-invocation epoch folded into the tag, the injected
// same-pair reordering fault delivers the k+1 envelope into the k receive
// (wrong data, or a buffer-overrun error when the shapes differ).
TEST_P(Perturbed, ConsecutiveBinnedAlltoallwDoNotAlias) {
    World w(6);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        for (int call = 0; call < 6; ++call) {
            check_alltoallw(c, AlltoallwAlgo::Binned, call + 3);
        }
    });
}

// Regression for the dissemination-barrier partner arithmetic at
// non-power-of-two rank counts, under an adversarial schedule: the shared
// phase counter detects any rank leaving a barrier round early.
TEST_P(Perturbed, BarrierStormNonPowerOfTwoRanks) {
    for (int n : {5, 7}) {
        constexpr int kRounds = 12;
        World w(n);
        w.set_schedule(policy());
        std::atomic<int> phase{0};
        std::atomic<int> arrived{0};
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(threshold());
            for (int r = 0; r < kRounds; ++r) {
                EXPECT_EQ(phase.load(), r) << "n=" << n;
                if (arrived.fetch_add(1) + 1 == c.size()) {
                    arrived.store(0);
                    phase.store(r + 1);
                }
                c.barrier();
                EXPECT_EQ(phase.load(), r + 1) << "n=" << n;
            }
        });
    }
}

// Regression for root-cause error propagation: the rank that throws first
// is the one World::run reports, even though the ranks it unblocks throw
// their secondary AbortedError concurrently — from a blocking recv, a
// blocking probe, and a wait on a pending nonblocking receive.
TEST_P(Perturbed, RootCauseErrorWinsOverSecondaryAborts) {
    World w(4);
    w.set_schedule(policy());
    bool caught = false;
    try {
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(threshold());
            switch (c.rank()) {
                case 0: {
                    int v = 0;
                    c.recv_n(&v, 1, 3, 99);  // never sent
                    break;
                }
                case 1:
                    throw nncomm::Error("boom from rank 1");
                case 2:
                    c.probe(3, 98);  // never sent
                    break;
                default: {
                    int v = 0;
                    rt::Request r = c.irecv(&v, sizeof(int), Datatype::byte(), 0, 97);
                    c.wait(r);
                    break;
                }
            }
        });
    } catch (const rt::AbortedError&) {
        ADD_FAILURE() << "secondary AbortedError masked the root cause";
    } catch (const nncomm::Error& e) {
        caught = true;
        EXPECT_NE(std::string(e.what()).find("boom from rank 1"), std::string::npos);
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(w.faulting_rank(), 1);
}

// ---------------------------------------------------------------------------
// nonblocking (icoll) schedules under perturbation

// Three icoll schedules concurrently in flight on one communicator, waited
// strictly out of order under the adversarial schedule. TagSpace draws a
// fresh epoch lane per start(), so no schedule's straggling traffic can
// satisfy another's receives even with same-pair reordering active.
TEST_P(Perturbed, IcollOutOfOrderWaits) {
    const int n = 5;
    World w(n);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());

        std::vector<int> bbuf(16, c.rank() == 2 ? 77 : -1);
        coll::CollRequest bc =
            coll::ibcast(c, bbuf.data(), bbuf.size() * 4, Datatype::byte(), 2);

        std::vector<std::size_t> counts(static_cast<std::size_t>(n));
        std::vector<std::size_t> displs(static_cast<std::size_t>(n));
        std::size_t total = 0;
        for (int r = 0; r < n; ++r) {
            counts[static_cast<std::size_t>(r)] = (r == 1) ? 48u : static_cast<std::size_t>(r + 1);
            displs[static_cast<std::size_t>(r)] = total;
            total += counts[static_cast<std::size_t>(r)];
        }
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> contrib(mine, c.rank() + 0.5);
        std::vector<double> gathered(total, -1.0);
        coll::CollRequest ag = coll::iallgatherv(c, contrib.data(), mine, Datatype::float64(),
                                                 gathered.data(), counts, displs,
                                                 Datatype::float64());

        long sum = c.rank() + 1;
        coll::CollRequest rd = coll::ireduce(c, &sum, 1, ReduceOp::Sum, 0);

        // Reverse completion order, with overlap pokes interleaved.
        for (int poke = 0; poke < 8; ++poke) {
            bc.test();
            ag.test();
        }
        rd.wait();
        ag.wait();
        bc.wait();

        if (c.rank() == 0) {
            EXPECT_EQ(sum, n * (n + 1) / 2);
        }
        for (int r = 0; r < n; ++r) {
            for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
                EXPECT_DOUBLE_EQ(gathered[displs[static_cast<std::size_t>(r)] + i], r + 0.5);
            }
        }
        for (int v : bbuf) EXPECT_EQ(v, 77);
    });
}

// Two ialltoallw schedules (different algorithms, different payloads) in
// flight simultaneously and completed out of order — the icoll face of the
// ConsecutiveBinnedAlltoallwDoNotAlias regression.
TEST_P(Perturbed, ConcurrentIalltoallwSchedulesDoNotAlias) {
    const int n = 5;
    World w(n);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        const auto un = static_cast<std::size_t>(n);
        std::vector<std::size_t> scounts(un), rcounts(un);
        std::vector<std::ptrdiff_t> sdispls(un), rdispls(un);
        std::vector<Datatype> types(un, Datatype::int32());
        std::size_t stotal = 0, rtotal = 0;
        for (int p = 0; p < n; ++p) {
            const auto up = static_cast<std::size_t>(p);
            scounts[up] = static_cast<std::size_t>((c.rank() + 2 * p) % 9 + 1);
            rcounts[up] = static_cast<std::size_t>((p + 2 * c.rank()) % 9 + 1);
            sdispls[up] = static_cast<std::ptrdiff_t>(stotal * 4);
            rdispls[up] = static_cast<std::ptrdiff_t>(rtotal * 4);
            stotal += scounts[up];
            rtotal += rcounts[up];
        }
        auto fill = [&](std::vector<std::int32_t>& buf, int salt) {
            buf.assign(stotal, 0);
            for (int p = 0; p < n; ++p) {
                const auto up = static_cast<std::size_t>(p);
                for (std::size_t i = 0; i < scounts[up]; ++i) {
                    buf[static_cast<std::size_t>(sdispls[up]) / 4 + i] =
                        salt * 100000 + c.rank() * 1000 + p * 10 + static_cast<int>(i);
                }
            }
        };
        CollConfig round_robin, binned;
        round_robin.alltoallw_algo = AlltoallwAlgo::RoundRobin;
        binned.alltoallw_algo = AlltoallwAlgo::Binned;
        binned.small_msg_threshold = 16;

        std::vector<std::int32_t> send1, send2, recv1(rtotal, -1), recv2(rtotal, -1);
        fill(send1, 1);
        fill(send2, 2);
        coll::CollRequest r1 = coll::ialltoallw(c, send1.data(), scounts, sdispls, types,
                                                recv1.data(), rcounts, rdispls, types,
                                                round_robin);
        coll::CollRequest r2 = coll::ialltoallw(c, send2.data(), scounts, sdispls, types,
                                                recv2.data(), rcounts, rdispls, types, binned);
        r2.wait();
        r1.wait();
        for (int salt = 1; salt <= 2; ++salt) {
            const auto& recvbuf = salt == 1 ? recv1 : recv2;
            for (int p = 0; p < n; ++p) {
                const auto up = static_cast<std::size_t>(p);
                for (std::size_t i = 0; i < rcounts[up]; ++i) {
                    EXPECT_EQ(recvbuf[static_cast<std::size_t>(rdispls[up]) / 4 + i],
                              salt * 100000 + p * 1000 + c.rank() * 10 + static_cast<int>(i))
                        << "salt " << salt << " from rank " << p;
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// empty neighborhoods under perturbation
//
// The degenerate sparse cases are where consensus-style protocols deadlock:
// a rank with nothing to say still has to participate in the termination
// decision, and a rank everyone ignores still has to learn that nobody is
// talking to it. Every fixture below must terminate (and agree) under the
// full adversarial-schedule matrix.

// All ranks pass empty neighborhoods: sparse_exchange degenerates to the
// dissemination barrier alone and must still terminate with zero receives.
TEST_P(Perturbed, SparseExchangeAllEmptyNeighborhoods) {
    World w(5);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        for (int round = 0; round < 3; ++round) {
            std::vector<rt::SparseRecv> got = rt::sparse_exchange(c, {});
            EXPECT_TRUE(got.empty()) << "round " << round;
        }
    });
}

// One rank is isolated on both sides: it sends nothing and nothing targets
// it, while the rest run a ring. The isolated rank must exit the consensus
// with zero receives at the same time as everyone else.
TEST_P(Perturbed, SparseExchangeIsolatedRank) {
    const int n = 6;
    const int isolated = 3;
    World w(n);
    w.set_schedule(policy());
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(c.rank()));
        std::vector<rt::SparseSend> sends;
        if (c.rank() != isolated) {
            int to = (c.rank() + 1) % n;
            if (to == isolated) to = (to + 1) % n;
            sends.push_back({to, std::as_bytes(std::span<const std::uint8_t>(payload))});
        }
        std::vector<rt::SparseRecv> got = rt::sparse_exchange(c, sends);
        if (c.rank() == isolated) {
            EXPECT_TRUE(got.empty());
        } else {
            ASSERT_EQ(got.size(), 1u);
            int from = (c.rank() + n - 1) % n;
            if (from == isolated) from = (from + n - 1) % n;
            EXPECT_EQ(got[0].source, from);
            ASSERT_EQ(got[0].bytes.size(), payload.size());
            EXPECT_EQ(std::to_integer<int>(got[0].bytes[0]), from);
        }
    });
}

// A VecScatter whose index sets are empty moves nothing but its construction
// still runs the sparse neighborhood discovery — no rank may hang, and all
// three backends must agree that the destination is untouched.
TEST_P(PerturbedSeed, EmptyVecScatterEveryBackend) {
    World w(4);
    w.set_schedule(SchedulePolicy::perturb(seed(), 2));
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        const Index n = 16;
        Vec src(c, n), dst(c, n);
        for (Index i = src.range().begin; i < src.range().end; ++i) {
            src.at_global(i) = static_cast<double>(i);
            dst.at_global(i) = -4.5;
        }
        VecScatter sc(src, IndexSet::general({}), dst, IndexSet::general({}));
        for (ScatterBackend backend : {ScatterBackend::HandTuned,
                                       ScatterBackend::DatatypeBaseline,
                                       ScatterBackend::DatatypeOptimized}) {
            sc.execute(src, dst, backend);
            for (Index i = dst.range().begin; i < dst.range().end; ++i) {
                EXPECT_DOUBLE_EQ(dst.at_global(i), -4.5)
                    << pk::scatter_backend_name(backend);
            }
        }
        // The sparse constructor path with nothing needed anywhere: the
        // destination layout owns zero slots per rank to match the empty
        // request lists.
        const std::vector<Index> zero_counts(static_cast<std::size_t>(c.size()), 0);
        const pk::Layout empty_dst = pk::Layout::from_counts(zero_counts);
        VecScatter sparse = VecScatter::gather_sparse(c, src.layout(), {}, empty_dst);
        for (std::uint64_t b : sparse.send_bytes()) EXPECT_EQ(b, 0u);
    });
}

// An AlltoallwPlan whose counts are all zero compiles to an empty schedule
// (two-sided) or to bare fences (RMA); repeated executes must complete
// immediately under perturbation.
TEST_P(PerturbedSeed, AllZeroAlltoallwPlan) {
    const int n = 4;
    World w(n);
    w.set_schedule(SchedulePolicy::perturb(seed(), 2));
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        const auto un = static_cast<std::size_t>(n);
        std::vector<std::size_t> counts(un, 0);
        std::vector<std::ptrdiff_t> displs(un, 0);
        std::vector<Datatype> types(un, Datatype::int32());
        for (auto transport : {coll::PlanTransport::TwoSided, coll::PlanTransport::Rma}) {
            coll::AlltoallwPlan plan(c, counts, displs, types, counts, displs, types,
                                     transport);
            for (int exec = 0; exec < 3; ++exec) {
                plan.execute(nullptr, nullptr);
            }
            EXPECT_EQ(plan.counters().persistent_executes, 3u);
            EXPECT_EQ(plan.counters().bytes_packed, 0u);
        }
    });
}

// ---------------------------------------------------------------------------
// VecScatter and persistent plans under perturbation

constexpr ScatterBackend kBackends[] = {ScatterBackend::HandTuned,
                                        ScatterBackend::DatatypeBaseline,
                                        ScatterBackend::DatatypeOptimized};

TEST_P(PerturbedSeed, VecScatterEveryBackendForwardAndReverse) {
    for (ScatterBackend backend : kBackends) {
        for (bool persistent : {false, true}) {
            World w(4);
            w.set_schedule(SchedulePolicy::perturb(seed(), 2));
            w.run([&](Comm& c) {
                c.set_rendezvous_threshold(threshold());
                const Index n = 24;
                Vec src(c, n), dst(c, n);
                for (Index i = src.range().begin; i < src.range().end; ++i) {
                    src.at_global(i) = static_cast<double>(i);
                }
                // Reverse permutation: dst[n-1-k] = src[k].
                VecScatter sc(src, IndexSet::identity(n), dst,
                              IndexSet::stride(n - 1, -1, n));
                sc.set_persistent(persistent);
                // Two executes: the second reuses the persistent plan.
                for (int round = 0; round < 2; ++round) {
                    sc.execute(src, dst, backend);
                    for (Index i = dst.range().begin; i < dst.range().end; ++i) {
                        EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(n - 1 - i))
                            << pk::scatter_backend_name(backend);
                    }
                }
                // Reverse scatter restores the identity into a cleared src.
                for (Index i = src.range().begin; i < src.range().end; ++i) {
                    src.at_global(i) = -1.0;
                }
                sc.execute_reverse(src, dst, backend);
                for (Index i = src.range().begin; i < src.range().end; ++i) {
                    EXPECT_DOUBLE_EQ(src.at_global(i), static_cast<double>(i))
                        << pk::scatter_backend_name(backend);
                }
            });
        }
    }
}

// Split-phase begin/test/end on every backend under the adversarial
// schedule: the overlap window (pokes between begin and end) must produce
// the same bytes as the blocking execute no matter how deliveries are
// deferred or reordered.
TEST_P(PerturbedSeed, SplitPhaseVecScatterEveryBackend) {
    for (ScatterBackend backend : kBackends) {
        World w(4);
        w.set_schedule(SchedulePolicy::perturb(seed(), 2));
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(threshold());
            const Index n = 24;
            Vec src(c, n), dst(c, n);
            for (Index i = src.range().begin; i < src.range().end; ++i) {
                src.at_global(i) = static_cast<double>(i) + 0.25;
            }
            VecScatter sc(src, IndexSet::identity(n), dst, IndexSet::stride(n - 1, -1, n));
            for (int round = 0; round < 3; ++round) {
                pk::ScatterRequest req = sc.begin(src, dst, backend);
                for (int poke = 0; poke < 4; ++poke) req.test();
                req.end();
                for (Index i = dst.range().begin; i < dst.range().end; ++i) {
                    EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(n - 1 - i) + 0.25)
                        << pk::scatter_backend_name(backend) << " round " << round;
                }
            }
            // Split-phase reverse restores the identity.
            for (Index i = src.range().begin; i < src.range().end; ++i) {
                src.at_global(i) = -1.0;
            }
            pk::ScatterRequest rev = sc.begin_reverse(src, dst, backend);
            rev.end();
            for (Index i = src.range().begin; i < src.range().end; ++i) {
                EXPECT_DOUBLE_EQ(src.at_global(i), static_cast<double>(i) + 0.25)
                    << pk::scatter_backend_name(backend);
            }
        });
    }
}

TEST_P(PerturbedSeed, PersistentPlanRepeatedExecutes) {
    const int n = 5;
    World w(n);
    w.set_schedule(SchedulePolicy::perturb(seed(), 3));
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        const auto un = static_cast<std::size_t>(n);
        // Fixed nonuniform shape, contiguous int blocks.
        std::vector<std::size_t> scounts(un), rcounts(un);
        std::vector<std::ptrdiff_t> sdispls(un), rdispls(un);
        std::vector<Datatype> types(un, Datatype::int32());
        std::size_t stotal = 0, rtotal = 0;
        for (int p = 0; p < n; ++p) {
            const auto up = static_cast<std::size_t>(p);
            scounts[up] = static_cast<std::size_t>((c.rank() + 3 * p) % 7);
            rcounts[up] = static_cast<std::size_t>((p + 3 * c.rank()) % 7);
            sdispls[up] = static_cast<std::ptrdiff_t>(stotal * 4);
            rdispls[up] = static_cast<std::ptrdiff_t>(rtotal * 4);
            stotal += scounts[up];
            rtotal += rcounts[up];
        }
        for (auto transport : {coll::PlanTransport::TwoSided, coll::PlanTransport::Rma}) {
            coll::AlltoallwPlan plan(c, scounts, sdispls, types, rcounts, rdispls, types,
                                     transport);
            std::vector<std::int32_t> sendbuf(stotal), recvbuf(rtotal);
            // Repeated executes with changing payloads: a straggler from
            // execute k must never satisfy execute k+1's receives.
            for (int exec = 0; exec < 5; ++exec) {
                for (int p = 0; p < n; ++p) {
                    const auto up = static_cast<std::size_t>(p);
                    for (std::size_t i = 0; i < scounts[up]; ++i) {
                        sendbuf[static_cast<std::size_t>(sdispls[up]) / 4 + i] =
                            exec * 10000 + c.rank() * 100 + p * 10 + static_cast<int>(i);
                    }
                }
                std::fill(recvbuf.begin(), recvbuf.end(), -1);
                plan.execute(sendbuf.data(), recvbuf.data());
                for (int p = 0; p < n; ++p) {
                    const auto up = static_cast<std::size_t>(p);
                    for (std::size_t i = 0; i < rcounts[up]; ++i) {
                        EXPECT_EQ(recvbuf[static_cast<std::size_t>(rdispls[up]) / 4 + i],
                                  exec * 10000 + p * 100 + c.rank() * 10 + static_cast<int>(i))
                            << "execute " << exec << " from rank " << p;
                    }
                }
            }
        }
    });
}

// The netsim bridge: the delivery engine driven by the cluster latency
// model, so every message sits in flight for its modeled transit time
// (in drain passes) on top of the seeded perturbation.
TEST_P(PerturbedSeed, NetsimRoutedScheduleDrivesCollectives) {
    const int n = 4;
    World w(n);
    const SchedulePolicy pol = sim::make_schedule(sim::make_paper_testbed(n), seed());
    EXPECT_TRUE(pol.enabled);
    EXPECT_TRUE(pol.use_latency_model);
    w.set_schedule(pol);
    std::atomic<std::uint64_t> deferrals{0};
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold());
        check_alltoallw(c, AlltoallwAlgo::Binned, 9);
        long v = c.rank();
        coll::allreduce(c, &v, 1, ReduceOp::Sum);
        EXPECT_EQ(v, n * (n - 1) / 2);
        c.barrier();
        deferrals += c.counters().sched_deferrals;
    });
    // The latency model adds at least one defer pass to every message.
    EXPECT_GT(deferrals.load(), 0u);
}

}  // namespace
