// Adaptive protocol selection: the EW cost model, the learned crossover,
// the escape hatches, and frozen persistent-plan choices.
//
// Determinism setup: every convergence test uses 2 ranks (a single
// (src, dst) pair — per-pair FIFO plus one writer per line makes the
// observation sequence program order) and World::set_synthetic_protocol_
// costs (observations are analytic, no clock), so learned thresholds are
// exact values, not ranges.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "coll/persistent.hpp"
#include "core/env.hpp"
#include "runtime/comm.hpp"
#include "runtime/protocol.hpp"

using namespace nncomm;
using dt::Datatype;
using rt::Comm;
using rt::PackFamily;
using rt::Request;
using rt::SchedulePolicy;
using rt::World;

namespace {

constexpr int kDataTag = 11;
constexpr int kTokenTag = 12;

/// es = 200 + 0.3·B, eu = 200 + 0.3·B, rz = 6000 + 0.25·B: the eager path
/// pays both copies, so the crossover sits at
/// (6000 − 400) / (0.6 − 0.25) = 16 000 bytes.
rt::SyntheticProtoCosts crossover_at_16000() {
    rt::SyntheticProtoCosts costs;
    costs.enabled = true;
    costs.eager_send_base_ns = 200.0;
    costs.eager_send_per_byte_ns = 0.3;
    costs.eager_unpack_base_ns = 200.0;
    costs.eager_unpack_per_byte_ns = 0.3;
    costs.rdzv_base_ns = 6000.0;
    costs.rdzv_per_byte_ns = 0.25;
    return costs;
}

/// Feeds all three lines of pair (0 → 1): eager sizes stay below the
/// static threshold, rendezvous sizes above it ride the pre-posted
/// zero-copy path (the receive is guaranteed posted via a token).
void feed_pair(Comm& c, int reps) {
    const std::vector<std::size_t> eager_sizes = {2048, 4096, 8192};
    const std::vector<std::size_t> rdzv_sizes = {65536, 131072, 262144};
    std::vector<std::uint8_t> buf(262144, 0x7e);
    for (int r = 0; r < reps; ++r) {
        for (std::size_t bytes : eager_sizes) {
            if (c.rank() == 0) {
                c.send(buf.data(), bytes, Datatype::byte(), 1, kDataTag);
            } else {
                c.recv(buf.data(), bytes, Datatype::byte(), 0, kDataTag);
            }
        }
        for (std::size_t bytes : rdzv_sizes) {
            if (c.rank() == 0) {
                int token = 0;
                c.recv_n(&token, 1, 1, kTokenTag);
                c.send(buf.data(), bytes, Datatype::byte(), 1, kDataTag);
            } else {
                Request rq = c.irecv(buf.data(), bytes, Datatype::byte(), 0, kDataTag);
                int token = 1;
                c.send_n(&token, 1, 0, kTokenTag);
                c.wait(rq);
            }
        }
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Unit: env parser, regression line, crossover solver

TEST(Adaptive, EnvParser) {
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

TEST(Adaptive, EwLineRecoversExactLine) {
    rt::EwLine line;
    for (int r = 0; r < 8; ++r) {
        for (double x : {1024.0, 8192.0, 65536.0, 524288.0}) {
            line.observe(x, 100.0 + 0.5 * x);
        }
    }
    const rt::EwLine::Fit f = line.fit();
    EXPECT_EQ(f.n, 32u);
    EXPECT_NEAR(f.a, 100.0f, 1.0f);
    EXPECT_NEAR(f.b, 0.5f, 1e-3f);
}

TEST(Adaptive, CrossoverSolver) {
    auto fit = [](float a, float b, std::uint32_t n) {
        rt::EwLine line;
        // Two exact points pin the line; replay to reach the sample count.
        for (std::uint32_t i = 0; i < n; i += 2) {
            line.observe(1000.0, a + b * 1000.0);
            line.observe(100000.0, a + b * 100000.0);
        }
        return line.fit();
    };
    const auto es = fit(200.0f, 0.3f, 32);
    const auto eu = fit(200.0f, 0.3f, 32);
    const auto rz = fit(6000.0f, 0.25f, 32);
    // (6000 - 400) / (0.6 - 0.25) = 16000.
    const std::size_t s = rt::crossover_bytes(es, eu, rz, 16, 1024, 8 << 20, 32768);
    EXPECT_NEAR(static_cast<double>(s), 16000.0, 64.0);

    // Under-sampled => fallback.
    EXPECT_EQ(rt::crossover_bytes(es, eu, fit(6000.0f, 0.25f, 4), 16, 1024, 8 << 20, 777u),
              777u);
    // Eager dominated per byte and at zero => clamp low.
    EXPECT_EQ(rt::crossover_bytes(es, eu, fit(10.0f, 0.01f, 32), 16, 1024, 8 << 20, 777u),
              1024u);
    // Rendezvous never recovers the handshake => clamp high.
    EXPECT_EQ(rt::crossover_bytes(es, eu, fit(6000.0f, 0.9f, 32), 16, 1024, 8 << 20, 777u),
              static_cast<std::size_t>(8 << 20));
}

// ---------------------------------------------------------------------------
// Runtime: learned threshold from synthetic costs

TEST(Adaptive, LearnsSyntheticCrossover) {
    if (!rt::adaptive_runtime_enabled()) GTEST_SKIP() << "NNCOMM_ADAPTIVE=OFF";
    World w(2);
    w.set_synthetic_protocol_costs(crossover_at_16000());
    w.run([](Comm& c) {
        ASSERT_TRUE(c.adaptive_protocol_engaged());
        feed_pair(c, 8);  // 24 observations per line, gate is 16
        c.barrier();
    });
    const std::size_t learned =
        w.learned_threshold(0, 1, PackFamily::Contiguous, /*fallback=*/32768);
    EXPECT_NEAR(static_cast<double>(learned), 16000.0, 160.0);
    EXPECT_GT(w.proto_pair_samples(0, 1), 0u);
}

TEST(Adaptive, CountersAttestChoicesAndWatermarks) {
    if (!rt::adaptive_runtime_enabled()) GTEST_SKIP() << "NNCOMM_ADAPTIVE=OFF";
    StatCounters total;
    World w(2);
    w.set_synthetic_protocol_costs(crossover_at_16000());
    w.run([&](Comm& c) {
        feed_pair(c, 8);
        // Post-convergence Auto sends: 20 KiB is above the learned 16 000
        // crossover but below the 32 KiB static default — it must now pick
        // rendezvous; 4 KiB stays eager.
        std::vector<std::uint8_t> buf(20480, 1);
        if (c.rank() == 0) {
            int token = 0;
            c.recv_n(&token, 1, 1, kTokenTag);
            c.send(buf.data(), buf.size(), Datatype::byte(), 1, kDataTag);
        } else {
            Request rq = c.irecv(buf.data(), buf.size(), Datatype::byte(), 0, kDataTag);
            int token = 1;
            c.send_n(&token, 1, 0, kTokenTag);
            c.wait(rq);
        }
        c.barrier();
        static std::mutex mu;
        std::lock_guard<std::mutex> lock(mu);
        total += c.counters();
    });
    EXPECT_GT(total.rt_proto_adapt_updates, 0u);
    EXPECT_GT(total.rt_proto_eager_chosen, 0u);
    EXPECT_GT(total.rt_proto_rdzv_chosen, 0u);
    // Watermarks: the fallback (32 KiB) was consulted before convergence,
    // the learned 16 000 after — both ends visible.
    EXPECT_GT(total.rt_proto_threshold_bytes_hi, 0u);
    EXPECT_GT(total.rt_proto_threshold_bytes_lo, 0u);
    EXPECT_LE(total.rt_proto_threshold_bytes_lo, total.rt_proto_threshold_bytes_hi);
    EXPECT_LE(total.rt_proto_threshold_bytes_lo, 16000u + 160u);
}

// ---------------------------------------------------------------------------
// Escape hatches

TEST(Adaptive, PinnedThresholdDisengages) {
    World w(2);
    w.set_synthetic_protocol_costs(crossover_at_16000());
    w.run([](Comm& c) {
        c.set_rendezvous_threshold(32768);  // explicit pin
        EXPECT_FALSE(c.adaptive_protocol_engaged());
        feed_pair(c, 8);
        c.barrier();
    });
    // Disengaged => nothing observed, threshold stays the fallback.
    EXPECT_EQ(w.proto_pair_samples(0, 1), 0u);
    EXPECT_EQ(w.learned_threshold(0, 1, PackFamily::Contiguous, 32768), 32768u);
}

TEST(Adaptive, SetAdaptiveFalseDisengagesAndTrueClearsPin) {
    World w(2);
    w.run([](Comm& c) {
        EXPECT_EQ(c.adaptive_protocol_engaged(), rt::adaptive_runtime_enabled());
        c.set_adaptive_protocol(false);
        EXPECT_FALSE(c.adaptive_protocol_engaged());
        c.set_rendezvous_threshold(1024);
        c.set_adaptive_protocol(true);  // explicit opt-in clears the pin
        EXPECT_EQ(c.adaptive_protocol_engaged(), rt::adaptive_runtime_enabled());
        EXPECT_EQ(c.rendezvous_threshold(), 1024u);  // now the fallback
        c.barrier();
    });
}

// ---------------------------------------------------------------------------
// Determinism: seed-stable under the fault-injection matrix

TEST(Adaptive, ConvergenceSeedStableUnderFaultMatrix) {
    if (!rt::adaptive_runtime_enabled()) GTEST_SKIP() << "NNCOMM_ADAPTIVE=OFF";
    // Under an active SchedulePolicy the rendezvous claim always declines
    // (delivery is deferred), so the rdzv line never reaches confidence and
    // every seed/level must deterministically report the static fallback —
    // adaptation degrades to the legacy decision instead of diverging.
    for (int level : {1, 2, 3}) {
        for (std::uint64_t seed : {1ull, 42ull, 1009ull}) {
            World w(2);
            w.set_schedule(SchedulePolicy::perturb(seed, level));
            w.set_synthetic_protocol_costs(crossover_at_16000());
            std::uint64_t eager_samples = 0;
            w.run([&](Comm& c) {
                feed_pair(c, 8);
                c.barrier();
                if (c.rank() == 0) eager_samples = c.counters().rt_proto_adapt_updates;
            });
            EXPECT_EQ(w.learned_threshold(0, 1, PackFamily::Contiguous, 32768), 32768u)
                << "seed " << seed << " level " << level;
            // The eager observation stream is program-order deterministic:
            // same count on every seed and level. All six sizes feed the
            // eager line — the declined rendezvous sends degrade to
            // buffered eager and are observed as such.
            EXPECT_EQ(eager_samples, 8u * 6u) << "seed " << seed << " level " << level;
        }
    }
}

// ---------------------------------------------------------------------------
// Persistent plans: frozen protocol choices are rerun-stable

TEST(Adaptive, FrozenPlanChoicesBitIdenticalAcrossReruns) {
    if (!rt::adaptive_runtime_enabled()) GTEST_SKIP() << "NNCOMM_ADAPTIVE=OFF";
    rt::ProtoTuneCache::instance().reset();

    auto build_protos = [](World& w) {
        std::vector<rt::Protocol> protos;
        w.run([&](Comm& c) {
            const auto n = static_cast<std::size_t>(c.size());
            std::vector<std::size_t> scounts(n, 0), rcounts(n, 0);
            std::vector<std::ptrdiff_t> sdispls(n, 0), rdispls(n, 0);
            std::vector<Datatype> stypes(n, Datatype::byte()), rtypes(n, Datatype::byte());
            const int peer = 1 - c.rank();
            scounts[static_cast<std::size_t>(peer)] = 65536;
            rcounts[static_cast<std::size_t>(peer)] = 65536;
            std::vector<std::uint8_t> src(65536, 0x3c), dst(65536, 0);
            // The frozen choices under test are the per-peer eager/rdzv
            // decisions of the two-sided schedule; force it so a default
            // RMA selection doesn't replace the Sends with Puts.
            coll::CollConfig cfg;
            cfg.persistent_protocol = rt::Protocol::Rendezvous;
            coll::AlltoallwPlan plan(c, scounts, sdispls, stypes, rcounts, rdispls, rtypes,
                                     cfg);
            plan.execute(src.data(), dst.data());
            EXPECT_EQ(dst[0], 0x3c);
            if (c.rank() == 0) {
                for (const auto& op : plan.schedule().ops) {
                    if (op.kind == coll::ScheduleOpKind::Send) protos.push_back(op.proto);
                }
            }
            c.barrier();
        });
        return protos;
    };

    World w(2);
    w.set_synthetic_protocol_costs(crossover_at_16000());
    const auto first = build_protos(w);
    ASSERT_FALSE(first.empty());
    const auto frozen_after_first = rt::ProtoTuneCache::instance().stats().freezes;
    EXPECT_GT(frozen_after_first, 0u);

    // Drift the cost model between constructions, then rebuild the same
    // pattern: the frozen entry must be adopted verbatim.
    w.run([](Comm& c) {
        feed_pair(c, 8);
        c.barrier();
    });
    const auto second = build_protos(w);
    EXPECT_EQ(first, second);
    const auto stats = rt::ProtoTuneCache::instance().stats();
    EXPECT_EQ(stats.freezes, frozen_after_first);  // no new entries
    EXPECT_GT(stats.hits, 0u);
    rt::ProtoTuneCache::instance().reset();
}

// ---------------------------------------------------------------------------
// Large strided persistent plan under the fault matrix

TEST(Adaptive, LargeStridedPlanCorrectUnderFaultMatrix) {
    // A large strided persistent exchange with the rendezvous threshold
    // pinned to 1 byte must deliver exact blocks under an active
    // SchedulePolicy, whichever transport the plan lowered to.
    constexpr std::size_t kBlocks = 2048;
    constexpr std::size_t kElems = 16;
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
            coll::AlltoallwPlan plan(c, scounts, sdispls, stypes, rcounts, rdispls, rtypes);
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
