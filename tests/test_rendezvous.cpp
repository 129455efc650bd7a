// Zero-copy rendezvous protocol tests (runtime/comm.cpp).
//
// The runtime's send path splits on the communicator's rendezvous
// threshold: a message at or above it whose matching receive is already
// posted moves straight into the receiver's buffer in a single copy (no
// envelope, no intermediate allocation); everything else stays buffered
// eager with its payload drawn from the per-world recycled pool. These
// tests pin the protocol boundary sizes, the fallbacks (unposted receive,
// active SchedulePolicy), the zero-byte bypass, the noncontiguous direct
// gather/scatter paths, pool recycling, and the rt_* counters that make
// all of it observable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "coll/persistent.hpp"
#include "runtime/comm.hpp"

namespace {

using namespace nncomm;
using dt::Datatype;
using rt::Comm;
using rt::Protocol;
using rt::Request;
using rt::SchedulePolicy;
using rt::World;

// Receiver posts its receive, then releases the sender with a token; the
// eager token round trip guarantees the big receive is posted before the
// big send fires, so the rendezvous precondition holds deterministically.
constexpr int kDataTag = 7;
constexpr int kTokenTag = 8;

struct ExchangeStats {
    std::atomic<std::uint64_t> zero_copy{0};
    std::atomic<std::uint64_t> bytes_copied{0};
    std::atomic<std::uint64_t> payload_allocs{0};
    std::atomic<std::uint64_t> pool_hits{0};
    std::atomic<std::uint64_t> pool_misses{0};

    void add(const StatCounters& c) {
        zero_copy += c.rt_zero_copy_msgs;
        bytes_copied += c.rt_bytes_copied;
        payload_allocs += c.rt_payload_allocs;
        pool_hits += c.rt_pool_hits;
        pool_misses += c.rt_pool_misses;
    }
};

// One posted-receive exchange of `bytes` contiguous bytes from rank 0 to
// rank 1 under the given threshold. Returns aggregated counters.
void posted_exchange(std::size_t bytes, std::size_t threshold, ExchangeStats& stats) {
    World w(2);
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(threshold);
        if (c.rank() == 1) {
            std::vector<std::uint8_t> in(bytes, 0);
            Request r = c.irecv(in.data(), bytes, Datatype::byte(), 0, kDataTag);
            int token = 1;
            c.send_n(&token, 1, 0, kTokenTag);  // receive is now posted
            rt::RecvStatus st = c.wait(r);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, kDataTag);
            EXPECT_EQ(st.bytes, bytes);
            for (std::size_t i = 0; i < bytes; ++i) {
                ASSERT_EQ(in[i], static_cast<std::uint8_t>(i * 13 + 5)) << "byte " << i;
            }
        } else {
            std::vector<std::uint8_t> out(bytes);
            for (std::size_t i = 0; i < bytes; ++i) {
                out[i] = static_cast<std::uint8_t>(i * 13 + 5);
            }
            int token = 0;
            c.recv_n(&token, 1, 1, kTokenTag);
            c.send(out.data(), bytes, Datatype::byte(), 1, kDataTag);
        }
        stats.add(c.counters());
    });
}

TEST(Rendezvous, ThresholdBoundarySizes) {
    constexpr std::size_t kT = 1024;
    // threshold - 1: buffered eager — two copies, no zero-copy message.
    {
        ExchangeStats s;
        posted_exchange(kT - 1, kT, s);
        EXPECT_EQ(s.zero_copy.load(), 0u);
        // Payload staged + unpacked (plus the 4-byte token round trip).
        EXPECT_GE(s.bytes_copied.load(), 2 * (kT - 1));
    }
    // threshold and threshold + 1: single-copy rendezvous.
    for (std::size_t bytes : {kT, kT + 1}) {
        ExchangeStats s;
        posted_exchange(bytes, kT, s);
        EXPECT_EQ(s.zero_copy.load(), 1u) << "bytes=" << bytes;
        // Exactly one pass over the payload; only the token is staged.
        EXPECT_EQ(s.bytes_copied.load(), bytes + 2 * sizeof(int)) << "bytes=" << bytes;
    }
}

TEST(Rendezvous, ExactThirtyTwoKiBBoundaryPinnedAcrossLayers) {
    // Regression pin for the audited boundary contract: rendezvous iff
    // total > 0 AND total >= threshold, at the documentation-favorite
    // threshold of exactly 32 KiB. Below the boundary both layers must go
    // eager; at and above it both must freeze rendezvous.
    constexpr std::size_t kT = 32 * 1024;

    // Runtime point-to-point (comm.cpp try_rendezvous).
    {
        ExchangeStats s;
        posted_exchange(kT - 1, kT, s);
        EXPECT_EQ(s.zero_copy.load(), 0u);
    }
    for (std::size_t bytes : {kT, kT + 1}) {
        ExchangeStats s;
        posted_exchange(bytes, kT, s);
        EXPECT_EQ(s.zero_copy.load(), 1u) << "bytes=" << bytes;
    }

    // Persistent alltoallw plan (persistent.cpp protocol freeze): each of
    // two ranks sends its peer exactly `bytes`; the plan's CTS handshake
    // guarantees the receive is posted, so the frozen Rendezvous decision
    // always lands zero-copy.
    auto plan_exchange = [](std::size_t bytes) {
        std::atomic<std::uint64_t> zero_copy{0};
        World w(2);
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(kT);
            const int peer = 1 - c.rank();
            std::vector<std::size_t> counts(2, 0);
            std::vector<std::ptrdiff_t> displs(2, 0);
            std::vector<Datatype> types(2, Datatype::byte());
            counts[static_cast<std::size_t>(peer)] = bytes;
            // The boundary under test is the two-sided eager/rendezvous
            // freeze; an RMA plan would bypass the zero-copy machinery.
            coll::AlltoallwPlan plan(c, counts, displs, types, counts, displs, types,
                                     coll::PlanTransport::TwoSided);
            std::vector<std::uint8_t> sendbuf(bytes, static_cast<std::uint8_t>(c.rank() + 1));
            std::vector<std::uint8_t> recvbuf(bytes, 0);
            plan.execute(sendbuf.data(), recvbuf.data());
            for (std::size_t i = 0; i < bytes; ++i) {
                ASSERT_EQ(recvbuf[i], static_cast<std::uint8_t>(peer + 1));
            }
            zero_copy += c.counters().rt_zero_copy_msgs;
        });
        return zero_copy.load();
    };
    // Below: frozen eager, so zero-copy is impossible. At/above: frozen
    // rendezvous; in a symmetric exchange a rank's payload may fire before
    // the peer consumed its CTS grant (FIFO makes it degrade to eager),
    // but whichever payload fires last always lands zero-copy — so at
    // least one of the two messages must.
    EXPECT_EQ(plan_exchange(kT - 1), 0u);
    for (std::size_t bytes : {kT, kT + 1}) {
        const std::uint64_t zc = plan_exchange(bytes);
        EXPECT_GE(zc, 1u) << "bytes=" << bytes;
        EXPECT_LE(zc, 2u) << "bytes=" << bytes;
    }
}

TEST(Rendezvous, ThresholdZeroSendsEverythingZeroCopy) {
    ExchangeStats s;
    posted_exchange(16, 0, s);
    // The 16-byte payload always rides rendezvous (its receive is posted by
    // construction). The token may or may not find its receive posted in
    // time — that race is exactly the opportunistic design.
    EXPECT_GE(s.zero_copy.load(), 1u);
    EXPECT_LE(s.zero_copy.load(), 2u);
}

TEST(Rendezvous, ZeroByteMessagesTouchNothing) {
    for (std::size_t threshold : {std::size_t{0}, std::size_t{1024}}) {
        ExchangeStats s;
        World w(2);
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(threshold);
            if (c.rank() == 1) {
                Request r = c.irecv(nullptr, 0, Datatype::byte(), 0, kDataTag);
                rt::RecvStatus st = c.wait(r);
                EXPECT_EQ(st.bytes, 0u);
                EXPECT_EQ(st.source, 0);
            } else {
                c.send(nullptr, 0, Datatype::byte(), 1, kDataTag);
            }
            s.add(c.counters());
        });
        // Empty sends are pure synchronization: no allocation, no pool
        // traffic, no copies, and no rendezvous attempt either.
        EXPECT_EQ(s.payload_allocs.load(), 0u);
        EXPECT_EQ(s.pool_hits.load() + s.pool_misses.load(), 0u);
        EXPECT_EQ(s.bytes_copied.load(), 0u);
        EXPECT_EQ(s.zero_copy.load(), 0u);
    }
}

TEST(Rendezvous, UnpostedReceiveFallsBackToBufferedEager) {
    constexpr std::size_t kBytes = 64 * 1024;  // well above the default threshold
    ExchangeStats s;
    World w(2);
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(0);
        if (c.rank() == 0) {
            std::vector<std::uint8_t> out(kBytes);
            std::iota(out.begin(), out.end(), std::uint8_t{3});
            // Eager delivery is synchronous: when this send returns the
            // payload sits in rank 1's unexpected queue, receive unposted.
            c.send(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
            int token = 1;
            c.send_n(&token, 1, 1, kTokenTag);
        } else {
            int token = 0;
            c.recv_n(&token, 1, 0, kTokenTag);  // payload already buffered
            std::vector<std::uint8_t> in(kBytes, 0);
            rt::RecvStatus st = c.recv(in.data(), kBytes, Datatype::byte(), 0, kDataTag);
            EXPECT_EQ(st.bytes, kBytes);
            std::vector<std::uint8_t> expect(kBytes);
            std::iota(expect.begin(), expect.end(), std::uint8_t{3});
            EXPECT_EQ(in, expect);
        }
        s.add(c.counters());
    });
    EXPECT_EQ(s.zero_copy.load(), 0u);
    EXPECT_GE(s.bytes_copied.load(), 2 * kBytes);  // staged + unpacked
}

// Every nonuniform layout pairing moves in one pass with no staging:
// scattered->flat (direct gather), flat->scattered (direct scatter) and
// scattered->scattered (engine chunks unpacked at their stream position).
TEST(Rendezvous, NoncontiguousLayoutsTransferZeroCopy) {
    constexpr std::size_t kN = 4096;  // elements; 32 KB of doubles
    const Datatype strided = Datatype::vector(kN, 1, 2, Datatype::float64());
    const std::size_t payload = kN * sizeof(double);

    struct Case {
        bool send_strided;
        bool recv_strided;
    };
    for (const Case cs : {Case{true, false}, Case{false, true}, Case{true, true}}) {
        ExchangeStats s;
        World w(2);
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(payload);  // exactly at threshold
            if (c.rank() == 1) {
                // Strided receive buffers need the full extent.
                std::vector<double> in(cs.recv_strided ? 2 * kN - 1 : kN, -1.0);
                Request r = cs.recv_strided
                                ? c.irecv(in.data(), 1, strided, 0, kDataTag)
                                : c.irecv(in.data(), payload, Datatype::byte(), 0, kDataTag);
                int token = 1;
                c.send_n(&token, 1, 0, kTokenTag);
                rt::RecvStatus st = c.wait(r);
                EXPECT_EQ(st.bytes, payload);
                for (std::size_t i = 0; i < kN; ++i) {
                    const std::size_t slot = cs.recv_strided ? 2 * i : i;
                    ASSERT_DOUBLE_EQ(in[slot], static_cast<double>(i) * 0.5) << "elem " << i;
                }
            } else {
                std::vector<double> out(cs.send_strided ? 2 * kN - 1 : kN, -7.0);
                for (std::size_t i = 0; i < kN; ++i) {
                    out[cs.send_strided ? 2 * i : i] = static_cast<double>(i) * 0.5;
                }
                int token = 0;
                c.recv_n(&token, 1, 1, kTokenTag);
                if (cs.send_strided) {
                    c.send(out.data(), 1, strided, 1, kDataTag);
                } else {
                    c.send(out.data(), payload, Datatype::byte(), 1, kDataTag);
                }
            }
            s.add(c.counters());
        });
        EXPECT_EQ(s.zero_copy.load(), 1u)
            << "send_strided=" << cs.send_strided << " recv_strided=" << cs.recv_strided;
        // No envelope was ever allocated for the payload (only the tokens
        // are too small for the pool's counters to ignore — they are pool
        // traffic, but zero heap growth after the first exchange is the
        // pool test below).
        EXPECT_EQ(s.bytes_copied.load(), payload + 2 * sizeof(int));
    }
}

TEST(Rendezvous, PayloadPoolRecyclesInSteadyState) {
    constexpr std::size_t kBytes = 4096;
    constexpr int kRounds = 32;
    ExchangeStats s;
    World w(2);
    w.run([&](Comm& c) {
        // Force buffered eager for every message.
        c.set_rendezvous_threshold(std::numeric_limits<std::size_t>::max());
        std::vector<std::uint8_t> buf(kBytes, static_cast<std::uint8_t>(c.rank()));
        const int peer = 1 - c.rank();
        for (int round = 0; round < kRounds; ++round) {
            // Blocking ping-pong: each payload buffer is released back to
            // the pool before the next send of the same size class fires.
            if (c.rank() == 0) {
                c.send(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
                c.recv(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
            } else {
                c.recv(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
                c.send(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
            }
        }
        s.add(c.counters());
    });
    const std::uint64_t acquires = s.pool_hits.load() + s.pool_misses.load();
    EXPECT_EQ(acquires, static_cast<std::uint64_t>(2 * kRounds));
    // Steady state: the same one or two buffers cycle between the ranks.
    EXPECT_LE(s.payload_allocs.load(), 2u);
    EXPECT_GE(s.pool_hits.load(), static_cast<std::uint64_t>(2 * kRounds - 2));
}

TEST(Rendezvous, DegradesToBufferedUnderSchedulePolicy) {
    constexpr std::size_t kBytes = 64 * 1024;
    for (std::uint64_t seed : {1ull, 42ull, 1009ull}) {
        ExchangeStats s;
        std::atomic<std::uint64_t> pending{0};
        World w(2);
        w.set_schedule(SchedulePolicy::perturb(seed, 2));
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(0);  // maximally eager to attempt rendezvous
            if (c.rank() == 1) {
                std::vector<std::uint8_t> in(kBytes, 0);
                Request r = c.irecv(in.data(), kBytes, Datatype::byte(), 0, kDataTag);
                int token = 1;
                c.send_n(&token, 1, 0, kTokenTag);
                rt::RecvStatus st = c.wait(r);
                EXPECT_EQ(st.bytes, kBytes);
                for (std::size_t i = 0; i < kBytes; ++i) {
                    ASSERT_EQ(in[i], static_cast<std::uint8_t>(i * 31 + 1)) << "byte " << i;
                }
            } else {
                std::vector<std::uint8_t> out(kBytes);
                for (std::size_t i = 0; i < kBytes; ++i) {
                    out[i] = static_cast<std::uint8_t>(i * 31 + 1);
                }
                int token = 0;
                c.recv_n(&token, 1, 1, kTokenTag);
                c.send(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
            }
            s.add(c.counters());
            pending += c.counters().sched_pending_sends;
        });
        // The posted receive was there, but the active policy must veto the
        // zero-copy path: every send routes through the in-flight queue.
        EXPECT_EQ(s.zero_copy.load(), 0u) << "seed=" << seed;
        EXPECT_GT(pending.load(), 0u) << "seed=" << seed;
    }
}

TEST(Rendezvous, WildcardReceiveStatusFilledCorrectly) {
    constexpr std::size_t kBytes = 48 * 1024;
    ExchangeStats s;
    World w(2);
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(32 * 1024);  // independent of the build default
        if (c.rank() == 1) {
            std::vector<std::uint8_t> in(kBytes, 0);
            Request r = c.irecv(in.data(), kBytes, Datatype::byte(), rt::kAnySource,
                                rt::kAnyTag);
            int token = 1;
            c.send_n(&token, 1, 0, kTokenTag);
            rt::RecvStatus st = c.wait(r);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, kDataTag);
            EXPECT_EQ(st.bytes, kBytes);
            EXPECT_EQ(in[kBytes - 1], static_cast<std::uint8_t>((kBytes - 1) % 251));
        } else {
            std::vector<std::uint8_t> out(kBytes);
            for (std::size_t i = 0; i < kBytes; ++i) {
                out[i] = static_cast<std::uint8_t>(i % 251);
            }
            int token = 0;
            c.recv_n(&token, 1, 1, kTokenTag);
            c.send(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
        }
        s.add(c.counters());
    });
    // The token travels TO rank 0, so the payload is the only message rank
    // 1 ever receives — the wildcard can only have matched it, and a
    // rendezvous match must fill the status exactly like deliver() would.
    EXPECT_EQ(s.zero_copy.load(), 1u);
}

TEST(Rendezvous, OversizedMessageIntoPostedReceiveThrows) {
    World w(2);
    EXPECT_THROW(
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(0);
            if (c.rank() == 1) {
                std::vector<std::uint8_t> in(1024, 0);
                Request r = c.irecv(in.data(), in.size(), Datatype::byte(), 0, kDataTag);
                int token = 1;
                c.send_n(&token, 1, 0, kTokenTag);
                c.wait(r);
            } else {
                std::vector<std::uint8_t> out(2048, 9);
                int token = 0;
                c.recv_n(&token, 1, 1, kTokenTag);
                c.send(out.data(), out.size(), Datatype::byte(), 1, kDataTag);
            }
        }),
        nncomm::Error);
}

// A blocking send below an unposted receive must not deadlock waiting for
// the receiver: rendezvous is an opportunistic fast path, never a protocol
// handshake the sender blocks on.
TEST(Rendezvous, BlockingSendNeverWaitsForTheReceiver) {
    constexpr std::size_t kBytes = 256 * 1024;  // well above the threshold
    World w(2);
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(32 * 1024);  // independent of the build default
        if (c.rank() == 0) {
            std::vector<std::uint8_t> out(kBytes, 0xAB);
            // Receiver has not posted anything and will not until after
            // this send returns — an actual rendezvous handshake would
            // deadlock here.
            c.send(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
            int token = 1;
            c.send_n(&token, 1, 1, kTokenTag);
        } else {
            int token = 0;
            c.recv_n(&token, 1, 0, kTokenTag);
            std::vector<std::uint8_t> in(kBytes, 0);
            c.recv(in.data(), kBytes, Datatype::byte(), 0, kDataTag);
            EXPECT_EQ(in[0], 0xAB);
            EXPECT_EQ(in[kBytes - 1], 0xAB);
        }
    });
}

// isend on the rendezvous path returns an already-complete request whose
// wait is a no-op; the payload landed before isend returned.
TEST(Rendezvous, IsendCompletesInlineWhenReceivePosted) {
    constexpr std::size_t kBytes = 64 * 1024;
    ExchangeStats s;
    World w(2);
    w.run([&](Comm& c) {
        c.set_rendezvous_threshold(32 * 1024);  // independent of the build default
        if (c.rank() == 1) {
            std::vector<std::uint8_t> in(kBytes, 0);
            Request r = c.irecv(in.data(), kBytes, Datatype::byte(), 0, kDataTag);
            int token = 1;
            c.send_n(&token, 1, 0, kTokenTag);
            c.wait(r);
            EXPECT_EQ(in[0], 0x5C);
        } else {
            std::vector<std::uint8_t> out(kBytes, 0x5C);
            int token = 0;
            c.recv_n(&token, 1, 1, kTokenTag);
            Request r = c.isend(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
            // The transfer is already done: mutating the send buffer now
            // must not affect what the receiver sees.
            out.assign(kBytes, 0x00);
            c.wait(r);
        }
        s.add(c.counters());
    });
    EXPECT_EQ(s.zero_copy.load(), 1u);
}

TEST(Rendezvous, LargeStridedPlanCorrectUnderFaultMatrix) {
    // A large strided persistent exchange with the rendezvous threshold
    // pinned to 1 byte must deliver exact blocks under an active
    // SchedulePolicy, on either transport.
    constexpr std::size_t kBlocks = 2048;
    constexpr std::size_t kElems = 16;
    for (auto transport : {coll::PlanTransport::TwoSided, coll::PlanTransport::Rma}) {
        for (std::uint64_t seed : {7ull, 99ull}) {
            World w(2);
            w.set_schedule(SchedulePolicy::perturb(seed, 2));
            w.run([&](Comm& c) {
                c.set_rendezvous_threshold(1);
                const auto n = static_cast<std::size_t>(c.size());
                const int peer = 1 - c.rank();
                auto block = Datatype::contiguous(kElems, Datatype::float64());
                auto strided = Datatype::vector(kBlocks, 1, 2, block);
                std::vector<double> src(kBlocks * kElems * 2);
                for (std::size_t i = 0; i < src.size(); ++i) {
                    src[i] = static_cast<double>(i % 353);
                }
                std::vector<double> dst(kBlocks * kElems, -1.0);
                std::vector<std::size_t> scounts(n, 0), rcounts(n, 0);
                std::vector<std::ptrdiff_t> sdispls(n, 0), rdispls(n, 0);
                std::vector<Datatype> stypes(n, Datatype::byte()), rtypes(n, Datatype::byte());
                scounts[static_cast<std::size_t>(peer)] = 1;
                stypes[static_cast<std::size_t>(peer)] = strided;
                rcounts[static_cast<std::size_t>(peer)] = kBlocks * kElems;
                rtypes[static_cast<std::size_t>(peer)] = Datatype::float64();
                coll::AlltoallwPlan plan(c, scounts, sdispls, stypes, rcounts, rdispls, rtypes,
                                         transport);
                plan.execute(src.data(), dst.data());
                for (std::size_t b = 0; b < kBlocks; ++b) {
                    for (std::size_t e = 0; e < kElems; ++e) {
                        ASSERT_DOUBLE_EQ(dst[b * kElems + e],
                                         static_cast<double>((b * kElems * 2 + e) % 353))
                            << "block " << b << " elem " << e;
                    }
                }
                c.barrier();
            });
        }
    }
}

// Regression for the pool byte budget. The per-class cap bounds buffer
// COUNT only, so before the budget existed a burst of large eager messages
// could pin count-cap x 8 MiB in the shared store forever. The budget must
// bound the store's resident bytes at every point (trimming largest
// classes first on insert), the rt_pool_resident_bytes counter must record
// the high water, and shrinking the budget must trim immediately.
TEST(PayloadPoolBudget, SharedStoreHonorsByteBudget) {
    constexpr std::size_t kBudget = 1 << 20;  // 1 MiB
    constexpr std::size_t kMsg = 256 * 1024;  // one 256 KiB size class
    constexpr int kMsgs = 24;  // enough releases to flush the receiver shelf repeatedly
    std::atomic<std::uint64_t> high_water{0};
    World w(2);
    w.set_payload_pool_budget(kBudget);
    w.run([&](Comm& c) {
        // Force buffered eager so every payload stages in the pool.
        c.set_rendezvous_threshold(std::numeric_limits<std::size_t>::max());
        if (c.rank() == 0) {
            std::vector<std::uint8_t> out(kMsg, 0x3D);
            for (int i = 0; i < kMsgs; ++i) {
                c.send(out.data(), kMsg, Datatype::byte(), 1, kDataTag);
            }
        } else {
            // Drain after the fact: each finish_recv releases a 256 KiB
            // buffer onto this rank's shelf, whose overflow flushes batches
            // into the budgeted shared store.
            std::vector<std::uint8_t> in(kMsg, 0);
            for (int i = 0; i < kMsgs; ++i) {
                c.recv(in.data(), kMsg, Datatype::byte(), 0, kDataTag);
                EXPECT_EQ(in[0], 0x3D);
                EXPECT_EQ(in[kMsg - 1], 0x3D);
            }
        }
        c.barrier();
        std::uint64_t hw = c.counters().rt_pool_resident_bytes;
        std::uint64_t cur = high_water.load();
        while (hw > cur && !high_water.compare_exchange_weak(cur, hw)) {
        }
    });
    EXPECT_LE(w.payload_pool_resident_bytes(), kBudget);
    EXPECT_GT(high_water.load(), 0u) << "flushes never reached the shared store";
    EXPECT_LE(high_water.load(), kBudget) << "budget was exceeded at some point";
    w.set_payload_pool_budget(0);  // shrink: must trim the store right away
    EXPECT_EQ(w.payload_pool_resident_bytes(), 0u);
}

}  // namespace
