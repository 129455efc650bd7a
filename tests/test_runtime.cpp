// Tests for the threaded message-passing runtime: matching, ordering,
// wildcards, nonblocking ops, datatype transfers, barrier and error
// propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/env.hpp"
#include "datatype/pack.hpp"
#include "runtime/comm.hpp"

namespace {

using nncomm::env_equals;
using nncomm::env_flag_enabled;
using nncomm::dt::Datatype;
using nncomm::rt::Comm;
using nncomm::rt::kAnySource;
using nncomm::rt::kAnyTag;
using nncomm::rt::RecvStatus;
using nncomm::rt::Request;
using nncomm::rt::World;

TEST(Runtime, SingleRankWorld) {
    World w(1);
    int visits = 0;
    w.run([&](Comm& c) {
        EXPECT_EQ(c.rank(), 0);
        EXPECT_EQ(c.size(), 1);
        ++visits;
    });
    EXPECT_EQ(visits, 1);
}

// The parser behind the runtime escape hatch (NNCOMM_SIMD).
TEST(Runtime, EnvParser) {
    EXPECT_TRUE(env_flag_enabled(nullptr));
    EXPECT_TRUE(env_flag_enabled("ON"));
    EXPECT_TRUE(env_flag_enabled("1"));
    EXPECT_TRUE(env_flag_enabled(""));
    EXPECT_TRUE(env_flag_enabled("off-ish"));
    EXPECT_FALSE(env_flag_enabled("OFF"));
    EXPECT_FALSE(env_flag_enabled("off"));
    EXPECT_FALSE(env_flag_enabled("oFf"));
    EXPECT_FALSE(env_flag_enabled("0"));
    EXPECT_FALSE(env_flag_enabled("FALSE"));
    EXPECT_FALSE(env_flag_enabled("false"));
    // The token matcher NNCOMM_SIMD parses with: whole-string, any case.
    EXPECT_TRUE(env_equals("avx512", "AVX512"));
    EXPECT_FALSE(env_equals("AVX", "AVX2"));
    EXPECT_FALSE(env_equals("AVX2x", "AVX2"));
}

TEST(Runtime, PingPong) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int x = 42;
            c.send_n(&x, 1, 1, 7);
            int y = 0;
            RecvStatus st = c.recv_n(&y, 1, 1, 8);
            EXPECT_EQ(y, 43);
            EXPECT_EQ(st.source, 1);
            EXPECT_EQ(st.tag, 8);
            EXPECT_EQ(st.bytes, sizeof(int));
        } else {
            int x = 0;
            c.recv_n(&x, 1, 0, 7);
            const int y = x + 1;
            c.send_n(&y, 1, 0, 8);
        }
    });
}

TEST(Runtime, SendBeforeRecvIsBuffered) {
    // The unexpected-message queue: sender completes before any recv posts.
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 10; ++i) c.send_n(&i, 1, 1, i);
        } else {
            // Receive in reverse tag order to exercise matching, not FIFO.
            for (int i = 9; i >= 0; --i) {
                int v = -1;
                c.recv_n(&v, 1, 0, i);
                EXPECT_EQ(v, i);
            }
        }
    });
}

TEST(Runtime, FifoOrderPerSenderSameTag) {
    World w(2);
    w.run([](Comm& c) {
        constexpr int kN = 100;
        if (c.rank() == 0) {
            for (int i = 0; i < kN; ++i) c.send_n(&i, 1, 1, 5);
        } else {
            for (int i = 0; i < kN; ++i) {
                int v = -1;
                c.recv_n(&v, 1, 0, 5);
                EXPECT_EQ(v, i);  // same (source, tag) => FIFO
            }
        }
    });
}

TEST(Runtime, WildcardSource) {
    World w(4);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            std::vector<bool> seen(4, false);
            for (int i = 1; i < 4; ++i) {
                int v = -1;
                RecvStatus st = c.recv_n(&v, 1, kAnySource, 3);
                EXPECT_EQ(v, st.source * 10);
                seen[static_cast<std::size_t>(st.source)] = true;
            }
            EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
        } else {
            const int v = c.rank() * 10;
            c.send_n(&v, 1, 0, 3);
        }
    });
}

TEST(Runtime, WildcardTag) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 5;
            c.send_n(&v, 1, 1, 1234);
        } else {
            int v = 0;
            RecvStatus st = c.recv_n(&v, 1, 0, kAnyTag);
            EXPECT_EQ(st.tag, 1234);
            EXPECT_EQ(v, 5);
        }
    });
}

TEST(Runtime, ZeroByteMessageSynchronizes) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            c.send(nullptr, 0, Datatype::byte(), 1, 9);
        } else {
            RecvStatus st = c.recv(nullptr, 0, Datatype::byte(), 0, 9);
            EXPECT_EQ(st.bytes, 0u);
            EXPECT_EQ(st.source, 0);
        }
    });
}

TEST(Runtime, NonblockingExchange) {
    World w(2);
    w.run([](Comm& c) {
        const int peer = 1 - c.rank();
        std::vector<double> out(64, c.rank() + 1.0);
        std::vector<double> in(64, 0.0);
        Request rr = c.irecv(in.data(), in.size() * 8, Datatype::byte(), peer, 0);
        Request sr = c.isend(out.data(), out.size() * 8, Datatype::byte(), peer, 0);
        std::vector<Request> reqs{rr, sr};
        c.waitall(reqs);
        EXPECT_DOUBLE_EQ(in[0], peer + 1.0);
        EXPECT_DOUBLE_EQ(in[63], peer + 1.0);
    });
}

TEST(Runtime, SendRecvToSelf) {
    World w(1);
    w.run([](Comm& c) {
        const int x = 77;
        int y = 0;
        c.sendrecv(&x, sizeof(int), Datatype::byte(), 0, 1, &y, sizeof(int), Datatype::byte(),
                   0, 1);
        EXPECT_EQ(y, 77);
    });
}

TEST(Runtime, SendRecvRing) {
    World w(5);
    w.run([](Comm& c) {
        const int n = c.size();
        const int to = (c.rank() + 1) % n;
        const int from = (c.rank() + n - 1) % n;
        int out = c.rank();
        int in = -1;
        c.sendrecv(&out, sizeof(int), Datatype::byte(), to, 0, &in, sizeof(int),
                   Datatype::byte(), from, 0);
        EXPECT_EQ(in, from);
    });
}

TEST(Runtime, NoncontiguousSendContiguousRecv) {
    // The matrix-transpose pattern: send column-major with a derived type,
    // receive raw bytes.
    constexpr std::size_t n = 8;
    World w(2);
    w.run([&](Comm& c) {
        auto elem = Datatype::contiguous(3, Datatype::float64());
        auto col = Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), elem);
        auto col_r = Datatype::resized(col, 0, elem.extent());
        auto matrix = Datatype::contiguous(n, col_r);
        if (c.rank() == 0) {
            std::vector<double> m(n * n * 3);
            std::iota(m.begin(), m.end(), 0.0);
            c.send(m.data(), 1, matrix, 1, 0);
        } else {
            std::vector<double> recv(n * n * 3, -1.0);
            c.recv(recv.data(), recv.size() * 8, Datatype::byte(), 0, 0);
            // recv now holds the transpose: element (i,j) of the received
            // row-major matrix is element (j,i) of the original.
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    for (std::size_t k = 0; k < 3; ++k) {
                        EXPECT_DOUBLE_EQ(recv[(i * n + j) * 3 + k],
                                         static_cast<double>((j * n + i) * 3 + k));
                    }
                }
            }
        }
    });
}

TEST(Runtime, NoncontiguousBothSides) {
    // Send a column, receive into a row: both ranks use derived types.
    constexpr std::size_t n = 6;
    World w(2);
    w.run([&](Comm& c) {
        auto col = Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), Datatype::float64());
        auto row = Datatype::contiguous(n, Datatype::float64());
        if (c.rank() == 0) {
            std::vector<double> m(n * n);
            std::iota(m.begin(), m.end(), 0.0);
            c.send(m.data(), 1, col, 1, 0);  // column 0: 0, 6, 12, ...
        } else {
            std::vector<double> m(n * n, -1.0);
            c.recv(m.data() + n, 1, row, 0, 0);  // into row 1
            for (std::size_t j = 0; j < n; ++j) {
                EXPECT_DOUBLE_EQ(m[n + j], static_cast<double>(j * n));
            }
            EXPECT_DOUBLE_EQ(m[0], -1.0);
        }
    });
}

TEST(Runtime, EngineSelectionBothProduceSameResult) {
    constexpr std::size_t n = 12;
    for (auto kind : {nncomm::dt::EngineKind::SingleContext, nncomm::dt::EngineKind::DualContext}) {
        World w(2);
        w.run([&](Comm& c) {
            c.set_engine(kind);
            auto col =
                Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), Datatype::float64());
            if (c.rank() == 0) {
                std::vector<double> m(n * n);
                std::iota(m.begin(), m.end(), 0.0);
                c.send(m.data(), 1, col, 1, 0);
            } else {
                std::vector<double> v(n, 0.0);
                c.recv(v.data(), n * 8, Datatype::byte(), 0, 0);
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_DOUBLE_EQ(v[i], static_cast<double>(i * n));
                }
            }
        });
    }
}

TEST(Runtime, BaselineEngineAccumulatesSearchCounters) {
    constexpr std::size_t n = 64;
    World w(2);
    w.run([&](Comm& c) {
        // The 32 KiB message sits at the default rendezvous threshold: when
        // the receive happens to be posted first it would move by direct
        // copy and skip the engine's search. Pin eager on both ranks.
        c.set_rendezvous_threshold(SIZE_MAX);
        c.set_engine(nncomm::dt::EngineKind::SingleContext);
        nncomm::dt::EngineConfig cfg;
        cfg.pipeline_chunk = 512;
        c.set_engine_config(cfg);
        // Aperiodic gaps (hash jitter on a base stride of 3): neither a
        // constant stride nor a periodic inner run, so the layout compiles
        // to the Irregular plan class and the baseline engine's re-search
        // path is actually exercised. (A periodic jitter like 2i + (i&1)
        // would classify as the BlockedStrided plan kernel and bypass it.)
        std::vector<std::size_t> lens(n * n, 1);
        std::vector<std::ptrdiff_t> displs(n * n);
        for (std::size_t i = 0; i < n * n; ++i) {
            const auto jit = static_cast<std::ptrdiff_t>(
                (static_cast<std::uint64_t>(i) * 2654435761ULL >> 7) % 2);
            displs[i] = (static_cast<std::ptrdiff_t>(3 * i) + jit) * 8;
        }
        auto col = Datatype::hindexed(lens, displs, Datatype::float64());
        if (c.rank() == 0) {
            std::vector<double> m(3 * n * n + 2);
            c.send(m.data(), 1, col, 1, 0);
            EXPECT_GT(c.counters().search_blocks_visited, 0u);
            EXPECT_GT(c.timers().ns(nncomm::Phase::Search), 0u);
        } else {
            std::vector<double> v(n * n);
            c.recv(v.data(), n * n * 8, Datatype::byte(), 0, 0);
        }
    });
}

TEST(Runtime, Barrier) {
    constexpr int kRounds = 20;
    World w(7);
    std::atomic<int> phase{0};
    std::atomic<int> arrived{0};
    w.run([&](Comm& c) {
        for (int r = 0; r < kRounds; ++r) {
            // Everyone must observe the same phase before and after.
            EXPECT_EQ(phase.load(), r);
            if (arrived.fetch_add(1) + 1 == c.size()) {
                arrived.store(0);
                phase.store(r + 1);
            }
            c.barrier();
            EXPECT_EQ(phase.load(), r + 1);
        }
    });
}

TEST(Runtime, MessageLargerThanBufferThrows) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) {
                         std::vector<double> big(100);
                         c.send_n(big.data(), big.size(), 1, 0);
                     } else {
                         double small[2];
                         c.recv_n(small, 2, 0, 0);
                     }
                 }),
                 nncomm::Error);
}

TEST(Runtime, ExceptionInOneRankPropagatesAndUnblocksOthers) {
    World w(3);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) {
                         throw nncomm::Error("boom");
                     }
                     // Other ranks block on a message that never comes; the
                     // abort must wake them.
                     int v = 0;
                     c.recv_n(&v, 1, 0, 99);
                 }),
                 nncomm::Error);
}

TEST(Runtime, InvalidDestinationRejected) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) {
                         int v = 1;
                         c.send_n(&v, 1, 5, 0);  // rank 5 does not exist
                     } else {
                         int v = 0;
                         c.recv_n(&v, 1, 0, 0);
                     }
                 }),
                 nncomm::Error);
}

TEST(Runtime, WorldIsReusableAcrossRuns) {
    World w(3);
    for (int iter = 0; iter < 3; ++iter) {
        w.run([&](Comm& c) {
            int token = c.rank();
            const int to = (c.rank() + 1) % c.size();
            const int from = (c.rank() + c.size() - 1) % c.size();
            int in = -1;
            c.sendrecv(&token, sizeof(int), Datatype::byte(), to, iter, &in, sizeof(int),
                       Datatype::byte(), from, iter);
            EXPECT_EQ(in, from);
        });
    }
}

TEST(Runtime, ManyRanksAllToOne) {
    World w(16);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            long sum = 0;
            for (int i = 1; i < c.size(); ++i) {
                int v = 0;
                c.recv_n(&v, 1, kAnySource, 0);
                sum += v;
            }
            EXPECT_EQ(sum, 15 * 16 / 2);
        } else {
            const int v = c.rank();
            c.send_n(&v, 1, 0, 0);
        }
    });
}

TEST(Runtime, DoubleWaitIsIdempotent) {
    // wait() on an already-completed request returns the cached status and
    // must not rematch or unpack again.
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int x = 11;
            c.send_n(&x, 1, 1, 4);
        } else {
            int x = 0;
            Request r = c.irecv(&x, sizeof(int), Datatype::byte(), 0, 4);
            RecvStatus first = c.wait(r);
            RecvStatus again = c.wait(r);
            EXPECT_EQ(x, 11);
            EXPECT_EQ(first.source, again.source);
            EXPECT_EQ(first.tag, again.tag);
            EXPECT_EQ(first.bytes, again.bytes);
        }
    });
}

TEST(Runtime, WaitallOnCompletedSendsIsIdempotent) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            std::vector<int> payload(4, 3);
            std::vector<Request> sends;
            for (int i = 0; i < 4; ++i) {
                sends.push_back(c.isend(&payload[static_cast<std::size_t>(i)], sizeof(int),
                                        Datatype::byte(), 1, i));
            }
            c.waitall(sends);
            c.waitall(sends);  // all complete: must be a no-op
        } else {
            for (int i = 0; i < 4; ++i) {
                int v = 0;
                c.recv_n(&v, 1, 0, i);
                EXPECT_EQ(v, 3);
            }
        }
    });
}

TEST(Runtime, PendingIsendCompletesUnderPerturbation) {
    // With a perturbation policy the isend is genuinely pending: the
    // request completes only once the delivery engine drains it, and the
    // sched_pending_sends counter proves it went through the queue.
    World w(2);
    w.set_schedule(nncomm::rt::SchedulePolicy::perturb(/*seed=*/12345, /*level=*/2));
    std::atomic<std::uint64_t> pending{0};
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> out(256, 2.5);
            Request s = c.isend(out.data(), out.size() * 8, Datatype::byte(), 1, 0);
            c.wait(s);
            pending += c.counters().sched_pending_sends;
        } else {
            std::vector<double> in(256, 0.0);
            c.recv_n(in.data(), in.size(), 0, 0);
            EXPECT_DOUBLE_EQ(in[0], 2.5);
            EXPECT_DOUBLE_EQ(in[255], 2.5);
        }
    });
    EXPECT_GT(pending.load(), 0u);
}

TEST(Runtime, UnexpectedQueueKeepsArrivalOrderUnderPerturbation) {
    // All messages arrive before any receive posts (a barrier separates
    // send and receive phases), so they queue as unexpected. Wildcard
    // receives must then drain them in arrival order — and the fault
    // injector's reordering never applies to user-context traffic, so
    // arrival order for one (source, tag) stream is post order.
    World w(2);
    w.set_schedule(nncomm::rt::SchedulePolicy::perturb(/*seed=*/777, /*level=*/3));
    w.run([](Comm& c) {
        constexpr int kN = 32;
        if (c.rank() == 0) {
            for (int i = 0; i < kN; ++i) c.send_n(&i, 1, 1, 5);
            c.barrier();
        } else {
            c.barrier();  // every message is now queued unexpected
            for (int i = 0; i < kN; ++i) {
                int v = -1;
                RecvStatus st = c.recv_n(&v, 1, kAnySource, kAnyTag);
                EXPECT_EQ(v, i);
                EXPECT_EQ(st.tag, 5);
            }
        }
    });
}

TEST(Runtime, RootCauseErrorWinsOverSecondaryAborts) {
    // The rank that throws is the one reported, not a rank whose blocked
    // recv was woken by the abort — whichever reaches the error slot first.
    World w(3);
    bool caught = false;
    try {
        w.run([](Comm& c) {
            if (c.rank() == 1) throw nncomm::Error("boom");
            int v = 0;
            c.recv_n(&v, 1, 1, 99);  // never sent; abort must wake this
        });
    } catch (const nncomm::rt::AbortedError&) {
        ADD_FAILURE() << "secondary AbortedError masked the root cause";
    } catch (const nncomm::Error& e) {
        caught = true;
        EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(w.faulting_rank(), 1);
}

// Parameterized stress: random point-to-point traffic with mixed datatypes
// is delivered correctly at several world sizes.
class RuntimeStress : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeStress, RandomRingTraffic) {
    const int n = GetParam();
    World w(n);
    w.run([&](Comm& c) {
        const int to = (c.rank() + 1) % n;
        const int from = (c.rank() + n - 1) % n;
        for (int round = 0; round < 8; ++round) {
            std::vector<int> out(64);
            std::iota(out.begin(), out.end(), c.rank() * 1000 + round);
            std::vector<int> in(64, -1);
            c.sendrecv(out.data(), out.size() * 4, Datatype::byte(), to, round, in.data(),
                       in.size() * 4, Datatype::byte(), from, round);
            EXPECT_EQ(in[0], from * 1000 + round);
            EXPECT_EQ(in[63], from * 1000 + round + 63);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, RuntimeStress, ::testing::Values(1, 2, 3, 4, 8, 13, 16));

}  // namespace
