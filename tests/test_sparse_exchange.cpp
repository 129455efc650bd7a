// NBX sparse dynamic exchange tests (runtime/sparse.cpp).
//
// The property at stake: for ANY sparse neighborhood — including empty
// ones, self-sends, zero-byte payloads and dense all-to-all patterns —
// rt::sparse_exchange must deliver exactly the messages the global send
// pattern addresses to each rank, sorted by source, with no deadlock and
// no cross-talk between back-to-back exchanges. The oracle is computed
// directly from the shared pattern seed (every rank can enumerate the full
// p x p pattern), so no dense collective is needed to check the sparse
// one. The whole matrix re-runs under seeded SchedulePolicy perturbation
// (deferred deliveries, stalls, reordering) and both rendezvous-threshold
// extremes, the same gate the schedule-stress suite pins.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/sparse.hpp"

namespace {

using namespace nncomm;
using dt::Datatype;
using rt::Comm;
using rt::IBarrier;
using rt::SchedulePolicy;
using rt::SparseRecv;
using rt::SparseSend;
using rt::World;

constexpr std::uint64_t kSeeds[] = {1, 7, 23, 42, 101, 271, 1009, 65537};
constexpr std::size_t kThresholds[] = {0, std::numeric_limits<std::size_t>::max()};

// SplitMix64 — deterministic, seedable, no global state. Both the pattern
// (does src send to dst?) and the payload bytes derive from it, so sender
// and oracle agree without communicating.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Whether src sends to dst under `seed`, and how many bytes. Density is
// seed-dependent (~1/4 of pairs); self-sends included; sizes span zero
// bytes through a few KiB so both protocol paths see traffic.
bool pattern_has(std::uint64_t seed, int src, int dst) {
    return (mix(seed ^ (static_cast<std::uint64_t>(src) << 20) ^
                static_cast<std::uint64_t>(dst)) &
            3u) == 0;
}

std::size_t pattern_bytes(std::uint64_t seed, int src, int dst) {
    const std::uint64_t h = mix(seed * 31 + 7 + (static_cast<std::uint64_t>(src) << 20) +
                                static_cast<std::uint64_t>(dst));
    return static_cast<std::size_t>(h % 3000);  // includes 0
}

std::vector<std::byte> pattern_payload(std::uint64_t seed, int src, int dst) {
    std::vector<std::byte> v(pattern_bytes(seed, src, dst));
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<std::byte>(mix(seed + i) ^ static_cast<std::uint64_t>(src * 131 + dst));
    }
    return v;
}

// The messages `rank` sends under `seed`, with their payloads kept alive in
// `stash` for the duration of the exchange.
std::vector<SparseSend> pattern_sends(std::uint64_t seed, int n, int rank,
                                      std::vector<std::vector<std::byte>>& stash) {
    stash.clear();
    stash.reserve(static_cast<std::size_t>(n));
    std::vector<SparseSend> sends;
    for (int dst = 0; dst < n; ++dst) {
        if (!pattern_has(seed, rank, dst)) continue;
        stash.push_back(pattern_payload(seed, rank, dst));
        sends.push_back({dst, stash.back()});
    }
    return sends;
}

// Oracle: `rank` must receive from every src with pattern_has(seed, src,
// rank), in ascending source order, with the seeded payload bytes.
void expect_matches_oracle(std::uint64_t seed, int n, int rank, int round,
                           const std::vector<SparseRecv>& got) {
    std::size_t k = 0;
    for (int src = 0; src < n; ++src) {
        if (!pattern_has(seed, src, rank)) continue;
        ASSERT_LT(k, got.size()) << "rank " << rank << " round " << round
                                 << ": missing message from " << src;
        EXPECT_EQ(got[k].source, src);
        const std::vector<std::byte> want = pattern_payload(seed, src, rank);
        ASSERT_EQ(got[k].bytes.size(), want.size()) << "rank " << rank << " src " << src;
        EXPECT_EQ(std::memcmp(got[k].bytes.data(), want.data(), want.size()), 0)
            << "rank " << rank << " src " << src << " round " << round;
        ++k;
    }
    EXPECT_EQ(k, got.size()) << "rank " << rank << " round " << round
                             << ": unexpected extra messages";
}

// Runs `rounds` back-to-back exchanges of the seeded pattern on `n` ranks
// and checks every rank's result against the locally computed oracle.
// Varying the seed per round exercises tag-epoch separation: a rank may
// enter round r+1 while a slow peer is still in round r's final barrier.
void run_pattern(int n, std::uint64_t seed, int rounds, SchedulePolicy policy,
                 std::size_t threshold) {
    World w(n);
    w.set_schedule(policy);
    std::atomic<std::uint64_t> exchanges{0};
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> recvd{0};
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold);
        const int rank = c.rank();
        for (int round = 0; round < rounds; ++round) {
            const std::uint64_t s = seed + static_cast<std::uint64_t>(round) * 1000003;
            std::vector<std::vector<std::byte>> stash;
            const std::vector<SparseSend> sends = pattern_sends(s, n, rank, stash);
            expect_matches_oracle(s, n, rank, round, rt::sparse_exchange(c, sends));
        }
        const StatCounters& st = c.counters();
        exchanges += st.rt_sparse_exchanges;
        sent += st.rt_sparse_msgs_sent;
        recvd += st.rt_sparse_msgs_recvd;
    });
    // Conservation: every remote payload sent was received exactly once,
    // and every rank tallied every round.
    EXPECT_EQ(exchanges.load(), static_cast<std::uint64_t>(n) * rounds);
    EXPECT_EQ(sent.load(), recvd.load());
}

// ---------------------------------------------------------------------------
// IBarrier

TEST(IBarrierTest, SingleRankCompletesImmediately) {
    World w(1);
    w.run([&](Comm& c) {
        IBarrier b(c);
        EXPECT_TRUE(b.done());
        EXPECT_TRUE(b.test());
    });
}

TEST(IBarrierTest, AllRanksComplete) {
    for (int n : {2, 3, 5, 8}) {
        World w(n);
        std::atomic<int> completed{0};
        w.run([&](Comm& c) {
            IBarrier b(c);
            b.wait();
            EXPECT_TRUE(b.done());
            ++completed;
        });
        EXPECT_EQ(completed.load(), n);
    }
}

TEST(IBarrierTest, NoEarlyExit) {
    // No rank may leave the barrier before every rank has entered it: a
    // straggler arms the barrier late, and early finishers must still be
    // spinning in test() until then.
    constexpr int kN = 4;
    World w(kN);
    std::atomic<int> entered{0};
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            // Straggle: let the others enter first.
            while (entered.load() < kN - 1) std::this_thread::yield();
        }
        ++entered;
        IBarrier b(c);
        b.wait();
        EXPECT_EQ(entered.load(), kN);
    });
}

TEST(IBarrierTest, BackToBackBarriers) {
    World w(4);
    w.run([&](Comm& c) {
        for (int i = 0; i < 8; ++i) {
            IBarrier b(c);
            b.wait();
        }
    });
}

// ---------------------------------------------------------------------------
// sparse_exchange: explicit shapes

TEST(SparseExchange, EmptyEverywhere) {
    // The canonical hang: nobody sends anything. Must reduce to the
    // consensus barrier alone.
    for (int n : {1, 2, 4, 7}) {
        World w(n);
        std::atomic<std::uint64_t> msgs{0};
        w.run([&](Comm& c) {
            std::vector<SparseRecv> got = rt::sparse_exchange(c, {});
            EXPECT_TRUE(got.empty());
            msgs += c.counters().rt_sparse_msgs_sent;
        });
        EXPECT_EQ(msgs.load(), 0u);
    }
}

TEST(SparseExchange, SelfSendOnly) {
    World w(3);
    w.run([&](Comm& c) {
        const std::uint32_t v = 0xabcd0000u + static_cast<std::uint32_t>(c.rank());
        std::vector<SparseSend> sends(1);
        sends[0].dest = c.rank();
        sends[0].bytes = std::as_bytes(std::span<const std::uint32_t>(&v, 1));
        std::vector<SparseRecv> got = rt::sparse_exchange(c, sends);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].source, c.rank());
        std::uint32_t back = 0;
        std::memcpy(&back, got[0].bytes.data(), sizeof back);
        EXPECT_EQ(back, v);
        // Self-delivery is a local copy: no wire messages.
        EXPECT_EQ(c.counters().rt_sparse_msgs_sent, 0u);
    });
}

TEST(SparseExchange, SingleDirectedEdge) {
    // Rank 0 -> rank n-1 only; every other rank has an empty neighborhood
    // on both sides and must still terminate.
    constexpr int kN = 5;
    World w(kN);
    w.run([&](Comm& c) {
        std::vector<double> payload = {1.5, -2.25, 3.0};
        std::vector<SparseSend> sends;
        if (c.rank() == 0) {
            sends.push_back({kN - 1, std::as_bytes(std::span<const double>(payload))});
        }
        std::vector<SparseRecv> got = rt::sparse_exchange(c, sends);
        if (c.rank() == kN - 1) {
            ASSERT_EQ(got.size(), 1u);
            EXPECT_EQ(got[0].source, 0);
            ASSERT_EQ(got[0].bytes.size(), 3 * sizeof(double));
            double back[3];
            std::memcpy(back, got[0].bytes.data(), sizeof back);
            EXPECT_EQ(back[0], 1.5);
            EXPECT_EQ(back[1], -2.25);
            EXPECT_EQ(back[2], 3.0);
        } else {
            EXPECT_TRUE(got.empty());
        }
    });
}

TEST(SparseExchange, ZeroBytePayloadStillDelivers) {
    // A zero-byte message is a legal "I exist" notification: the receiver
    // must learn the source even though no data moves.
    World w(4);
    w.run([&](Comm& c) {
        std::vector<SparseSend> sends;
        if (c.rank() == 2) sends.push_back({0, {}});
        std::vector<SparseRecv> got = rt::sparse_exchange(c, sends);
        if (c.rank() == 0) {
            ASSERT_EQ(got.size(), 1u);
            EXPECT_EQ(got[0].source, 2);
            EXPECT_TRUE(got[0].bytes.empty());
        } else {
            EXPECT_TRUE(got.empty());
        }
    });
}

TEST(SparseExchange, DenseAllToAllDegenerateCase) {
    // Every rank sends to every rank (self included): the sparse primitive
    // must also survive the fully dense pattern.
    constexpr int kN = 6;
    World w(kN);
    w.run([&](Comm& c) {
        std::vector<std::vector<std::byte>> stash;
        std::vector<SparseSend> sends;
        for (int dst = 0; dst < kN; ++dst) {
            std::vector<std::byte> p(8);
            const std::uint64_t tagv =
                (static_cast<std::uint64_t>(c.rank()) << 32) | static_cast<std::uint64_t>(dst);
            std::memcpy(p.data(), &tagv, sizeof tagv);
            stash.push_back(std::move(p));
            sends.push_back({dst, stash.back()});
        }
        std::vector<SparseRecv> got = rt::sparse_exchange(c, sends);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
        for (int src = 0; src < kN; ++src) {
            EXPECT_EQ(got[static_cast<std::size_t>(src)].source, src);
            std::uint64_t v = 0;
            std::memcpy(&v, got[static_cast<std::size_t>(src)].bytes.data(), sizeof v);
            EXPECT_EQ(v >> 32, static_cast<std::uint64_t>(src));
            EXPECT_EQ(v & 0xffffffffu, static_cast<std::uint64_t>(c.rank()));
        }
    });
}

TEST(SparseExchange, TypedWrapperRoundTrips) {
    World w(4);
    w.run([&](Comm& c) {
        std::vector<std::pair<int, std::vector<std::int64_t>>> sends;
        // Ring: rank r sends {r, r*10} to r+1.
        const int dst = (c.rank() + 1) % c.size();
        sends.emplace_back(dst, std::vector<std::int64_t>{c.rank(), c.rank() * 10});
        auto got = rt::sparse_exchange_t<std::int64_t>(
            c, std::span<const std::pair<int, std::vector<std::int64_t>>>(sends));
        const int src = (c.rank() + c.size() - 1) % c.size();
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].first, src);
        ASSERT_EQ(got[0].second.size(), 2u);
        EXPECT_EQ(got[0].second[0], src);
        EXPECT_EQ(got[0].second[1], src * 10);
    });
}

TEST(SparseExchange, ConsensusParksWhileAPeerIsLate) {
    // The consensus waits on Comm::wait_until, so ranks held up by a late
    // peer park on their mailbox condition variable instead of spinning:
    // each of them records at least one registered sleep while rank 3
    // idles, and the late entry changes nothing in the result.
    constexpr int kN = 4;
    constexpr std::uint64_t kSeed = 42;
    World w(kN);
    std::atomic<int> entering{0};
    w.run([&](Comm& c) {
        const int rank = c.rank();
        std::vector<std::vector<std::byte>> stash;
        const std::vector<SparseSend> sends = pattern_sends(kSeed, kN, rank, stash);
        if (rank == kN - 1) {
            // Late only once the others are on their way in, so the sleep
            // below is time they all spend inside the exchange.
            while (entering.load() < kN - 1) std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else {
            ++entering;
        }
        const std::uint64_t parks_before = c.counters().rt_cv_waits;
        const std::vector<SparseRecv> got = rt::sparse_exchange(c, sends);
        const std::uint64_t parks = c.counters().rt_cv_waits - parks_before;
        expect_matches_oracle(kSeed, kN, rank, 0, got);
        if (rank != kN - 1) {
            EXPECT_GE(parks, 1u) << "rank " << rank << " never parked";
        }
    });
}

// ---------------------------------------------------------------------------
// property sweep: random patterns x schedule perturbation x protocol

class SparsePerturbed
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, std::size_t>> {
protected:
    std::uint64_t seed() const { return std::get<0>(GetParam()); }
    int level() const { return std::get<1>(GetParam()); }
    std::size_t threshold() const { return std::get<2>(GetParam()); }
    SchedulePolicy policy() const { return SchedulePolicy::perturb(seed(), level()); }
};

INSTANTIATE_TEST_SUITE_P(Seeds, SparsePerturbed,
                         ::testing::Combine(::testing::ValuesIn(kSeeds),
                                            ::testing::Values(0, 2, 3),
                                            ::testing::ValuesIn(kThresholds)));

TEST_P(SparsePerturbed, RandomPatternMatchesOracle) {
    run_pattern(6, seed(), 3, policy(), threshold());
}

TEST_P(SparsePerturbed, WiderWorldSingleRound) {
    run_pattern(12, seed() ^ 0xf00d, 1, policy(), threshold());
}

}  // namespace
