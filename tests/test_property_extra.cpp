// Extended property tests: randomized datatype trees over the full
// constructor set (flattened tables vs their typemap models, engines vs
// reference packer), flattening and dense-path regressions,
// cross-algorithm collective fuzzing, and point-to-point message storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/util.hpp"
#include "core/rng.hpp"
#include "datatype/engine.hpp"
#include "datatype/pack.hpp"
#include "typemap_model.hpp"

namespace {

using namespace nncomm;
using dt::Datatype;
using rt::Comm;
using rt::World;

// Ground truth: the cursor-driven reference packer, which deliberately
// never dispatches through a compiled PackPlan (pack.hpp). Both the
// engines and the plan kernels are validated against this.
std::vector<std::byte> reference_pack(const void* base, const Datatype& t, std::size_t count) {
    std::vector<std::byte> out(t.size() * count);
    dt::TypeCursor cur(&t.flat(), count);
    const std::size_t n =
        dt::pack_bytes(static_cast<const std::byte*>(base), cur, std::span<std::byte>(out));
    EXPECT_EQ(n, out.size());
    return out;
}

// ---------------------------------------------------------------------------
// randomized type trees over every constructor

class FullTypeTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullTypeTreeProperty, EnginesMatchReferenceOnArbitraryTrees) {
    const std::uint64_t seed = GetParam();
    Rng rng(seed * 7919 + 13);
    const test::ModelledType mt = test::random_type(rng, static_cast<int>(rng.uniform_u64(1, 3)));
    const Datatype& t = mt.type;
    const std::size_t count = rng.uniform_u64(1, 3);

    // The table is the typemap's, in typemap order, before anything reads it.
    ASSERT_EQ(test::block_list(t.flat().blocks()), test::block_list(mt.model.blocks()))
        << "seed " << seed;
    EXPECT_EQ(t.size(), mt.model.size()) << "seed " << seed;
    EXPECT_EQ(t.lb(), mt.model.lb) << "seed " << seed;
    EXPECT_EQ(t.extent(), mt.model.extent()) << "seed " << seed;

    // Size the buffer by true data bounds (resized types read past extent).
    ASSERT_GE(t.flat().data_lb(), 0) << "generator must not produce negative offsets";
    const std::size_t span = static_cast<std::size_t>(
        t.extent() * static_cast<std::ptrdiff_t>(count - 1) + mt.model.data_ub() + 8);
    std::vector<std::byte> buf(span);
    for (std::size_t i = 0; i < span; ++i) {
        buf[i] = static_cast<std::byte>(rng.uniform_u64(0, 255));
    }

    auto ref = reference_pack(buf.data(), t, count);
    EXPECT_EQ(ref.size(), t.size() * count);

    dt::EngineConfig cfg;
    cfg.pipeline_chunk = 1 + rng.uniform_u64(0, 300);
    cfg.density_threshold = (rng.uniform_u64(0, 1) != 0) ? 1.0 : 64.0;
    for (auto kind : {dt::EngineKind::SingleContext, dt::EngineKind::DualContext}) {
        auto e = dt::make_engine(kind, buf.data(), t, count, cfg);
        std::vector<std::byte> out;
        dt::ChunkView chunk;
        while (e->next_chunk(chunk)) {
            if (chunk.dense) {
                for (const auto& [p, len] : chunk.iov) out.insert(out.end(), p, p + len);
            } else {
                out.insert(out.end(), chunk.packed.begin(), chunk.packed.end());
            }
        }
        EXPECT_EQ(out, ref) << "seed " << seed << " count=" << count << " chunk="
                            << cfg.pipeline_chunk;
    }

    // Round trip through unpack restores the packed view (unpack_from goes
    // through the plan; repacking with the cursor keeps the comparison
    // anchored to the reference).
    std::vector<std::byte> buf2(span, std::byte{0});
    dt::unpack_from(buf2.data(), t, count, ref);
    auto repacked = reference_pack(buf2.data(), t, count);
    EXPECT_EQ(repacked, ref);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullTypeTreeProperty, ::testing::Range<std::uint64_t>(1, 61));

// ---------------------------------------------------------------------------
// flattening and dense-path regressions

// A child whose size equals its extent at lb 0 is not dense when its
// elements run out of order: nesting it keeps each instance's typemap order.
TEST(FlatRegression, NestedOutOfOrderHindexedKeepsTypemapOrder) {
    const std::vector<std::size_t> ones{1, 1};
    const std::vector<std::ptrdiff_t> swapped_at{8, 0};
    const Datatype swapped = Datatype::hindexed(ones, swapped_at, Datatype::float64());
    EXPECT_FALSE(swapped.is_contiguous());
    using test::BlockList;

    const Datatype pair = Datatype::contiguous(2, swapped);
    EXPECT_EQ(test::block_list(pair.flat().blocks()),
              (BlockList{{8, 8}, {0, 8}, {24, 8}, {16, 8}}));
    const std::vector<std::ptrdiff_t> backwards{1, 0};
    const Datatype reversed = Datatype::indexed(ones, backwards, swapped);
    EXPECT_EQ(test::block_list(reversed.flat().blocks()),
              (BlockList{{24, 8}, {16, 8}, {8, 8}, {0, 8}}));

    const std::vector<double> src{0, 1, 2, 3};
    std::vector<double> out(4);
    dt::pack_into(src.data(), pair, 1, std::as_writable_bytes(std::span(out)));
    EXPECT_EQ(out, (std::vector<double>{1, 0, 3, 2}));
    dt::pack_into(src.data(), reversed, 1, std::as_writable_bytes(std::span(out)));
    EXPECT_EQ(out, (std::vector<double>{3, 2, 1, 0}));
}

// One double at byte 8 of an instance whose bounds are [0, 8): its one
// block is as long as the extent but starts past the lower bound, so no
// path may take it for a dense run at the buffer base. Every path must move
// the 2, not the 1.
TEST(FlatRegression, DisplacedDoubleMovesFromItsOffset) {
    const std::vector<std::size_t> one{1};
    const std::vector<std::ptrdiff_t> at8{8};
    const Datatype shifted =
        Datatype::resized(Datatype::hindexed(one, at8, Datatype::float64()), 0, 8);
    EXPECT_FALSE(shifted.is_contiguous());
    EXPECT_FALSE(shifted.flat().contiguous());
    const std::vector<double> src{1, 2};

    double packed = 0;
    dt::pack_into(src.data(), shifted, 1, std::as_writable_bytes(std::span(&packed, 1)));
    EXPECT_EQ(packed, 2.0);

    // Point to point: the sender packs from and the receiver unpacks into
    // the shifted layout, eagerly and by rendezvous into a posted receive.
    constexpr int kData = 7, kToken = 8;
    for (const std::size_t threshold : {SIZE_MAX, std::size_t{0}}) {
        std::uint64_t zero_copy = 0;  // the sender's count
        std::vector<double> dst{0, 0};
        World w(2);
        w.run([&](Comm& c) {
            c.set_rendezvous_threshold(threshold);
            int token = 0;
            if (c.rank() == 1) {
                rt::Request r = c.irecv(dst.data(), 1, shifted, 0, kData);
                c.send_n(&token, 1, 0, kToken);  // the receive is posted
                c.wait(r);
            } else {
                c.recv_n(&token, 1, 1, kToken);
                c.send(src.data(), 1, shifted, 1, kData);
                zero_copy = c.counters().rt_zero_copy_msgs;
            }
        });
        EXPECT_EQ(dst, (std::vector<double>{0, 2})) << "threshold " << threshold;
        EXPECT_EQ(zero_copy, threshold == 0 ? 1u : 0u) << "threshold " << threshold;
    }

    // The alltoallw self copy, into the same layout and into a dense one.
    std::vector<double> dst{0, 0};
    coll::detail::copy_typed(src.data(), 1, shifted, dst.data(), 1, shifted);
    EXPECT_EQ(dst, (std::vector<double>{0, 2}));
    double dense = 0;
    coll::detail::copy_typed(src.data(), 1, shifted, &dense, 1, Datatype::float64());
    EXPECT_EQ(dense, 2.0);
}

// ---------------------------------------------------------------------------
// compiled plan kernels vs the reference packer

class PlanKernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanKernelProperty, KernelsAreByteIdenticalToReference) {
    Rng rng(GetParam() * 6277 + 5);

    Datatype t;
    bool must_specialize = false;
    switch (rng.uniform_u64(0, 2)) {
        case 0: {
            // Vector pattern: uniform block length, constant stride. Must
            // compile to a specialized kernel (Strided, or Contiguous when
            // the blocks tile densely).
            const std::size_t bl = rng.uniform_u64(1, 9);
            const std::size_t nb = rng.uniform_u64(1, 12);
            const std::ptrdiff_t stride =
                static_cast<std::ptrdiff_t>(bl + rng.uniform_u64(0, 5));
            t = Datatype::vector(nb, bl, stride, Datatype::float64());
            must_specialize = true;
            break;
        }
        case 1: {
            // Hindexed: sometimes an arithmetic progression (compiles to
            // Strided), sometimes jittered gaps (Irregular fallback).
            const std::size_t nb = rng.uniform_u64(2, 10);
            const std::size_t bl = rng.uniform_u64(1, 4);
            const bool arithmetic = rng.bernoulli(0.5);
            std::vector<std::size_t> lens(nb, bl);
            std::vector<std::ptrdiff_t> displs(nb);
            std::ptrdiff_t at = 0;
            for (std::size_t i = 0; i < nb; ++i) {
                displs[i] = at * 8;
                at += static_cast<std::ptrdiff_t>(
                    bl + (arithmetic ? 2 : rng.uniform_u64(1, 4)));
            }
            t = Datatype::hindexed(lens, displs, Datatype::float64());
            must_specialize = arithmetic;
            break;
        }
        default: {
            // Struct over mixed element types: block lengths differ, so
            // this generally lands in the Irregular class.
            std::vector<std::size_t> lens{rng.uniform_u64(1, 3), rng.uniform_u64(1, 3)};
            std::vector<std::ptrdiff_t> displs{
                0, static_cast<std::ptrdiff_t>(lens[0] * 8 + rng.uniform_u64(1, 9))};
            std::vector<Datatype> types{Datatype::float64(), Datatype::int32()};
            t = Datatype::struct_type(lens, displs, types);
            break;
        }
    }
    const std::size_t count = rng.uniform_u64(1, 4);

    const dt::PackPlan& plan = t.plan();
    if (must_specialize) {
        EXPECT_TRUE(plan.specialized()) << "seed " << GetParam();
    }

    const auto& flat = t.flat();
    ASSERT_GE(flat.data_lb(), 0);
    const std::size_t span = static_cast<std::size_t>(
        t.extent() * static_cast<std::ptrdiff_t>(count - 1) + flat.data_ub() + 8);
    std::vector<std::byte> buf(span);
    for (std::size_t i = 0; i < span; ++i) {
        buf[i] = static_cast<std::byte>(rng.uniform_u64(0, 255));
    }

    auto ref = reference_pack(buf.data(), t, count);

    // Whole-message pack.
    std::vector<std::byte> out(ref.size());
    plan.pack(flat, buf.data(), count, std::span<std::byte>(out));
    EXPECT_EQ(out, ref) << "seed " << GetParam()
                        << " kernel=" << dt::pack_kernel_name(plan.kernel());

    // Random windows: the O(1) stream positioning agrees with stream
    // slices at arbitrary (pos, len), including mid-block entry and exit.
    for (int i = 0; i < 8 && !ref.empty(); ++i) {
        const std::uint64_t pos = rng.uniform_u64(0, ref.size() - 1);
        const std::size_t len = rng.uniform_u64(1, ref.size() - pos);
        std::vector<std::byte> window(len);
        plan.pack_range(flat, buf.data(), count, pos, std::span<std::byte>(window));
        EXPECT_TRUE(std::equal(window.begin(), window.end(),
                               ref.begin() + static_cast<std::ptrdiff_t>(pos)))
            << "seed " << GetParam() << " pos=" << pos << " len=" << len;
    }

    // Unpack inverts pack: scatter the reference stream into a clean
    // buffer, then the reference packer must read it back identically.
    std::vector<std::byte> buf2(span, std::byte{0});
    plan.unpack(flat, buf2.data(), count, ref);
    auto repacked = reference_pack(buf2.data(), t, count);
    EXPECT_EQ(repacked, ref);

    // Windowed unpack too: two disjoint halves land the same as one shot.
    if (ref.size() >= 2) {
        std::vector<std::byte> buf3(span, std::byte{0});
        const std::size_t cut = ref.size() / 2;
        plan.unpack_range(flat, buf3.data(), count, 0,
                          std::span<const std::byte>(ref.data(), cut));
        plan.unpack_range(flat, buf3.data(), count, cut,
                          std::span<const std::byte>(ref.data() + cut, ref.size() - cut));
        EXPECT_EQ(reference_pack(buf3.data(), t, count), ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanKernelProperty, ::testing::Range<std::uint64_t>(1, 81));

// ---------------------------------------------------------------------------
// collective fuzzing: all allgatherv algorithms agree on random volume sets

class AllgathervFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllgathervFuzz, AlgorithmsAgreeOnRandomVolumes) {
    Rng rng(GetParam() * 104729);
    const int n = static_cast<int>(rng.uniform_u64(2, 10));
    std::vector<std::size_t> counts(static_cast<std::size_t>(n));
    std::vector<std::size_t> displs(static_cast<std::size_t>(n));
    std::size_t at = 0;
    for (int i = 0; i < n; ++i) {
        counts[static_cast<std::size_t>(i)] =
            rng.bernoulli(0.2) ? 0 : rng.uniform_u64(1, 200);
        displs[static_cast<std::size_t>(i)] = at;
        at += counts[static_cast<std::size_t>(i)];
    }
    if (at == 0) {
        counts[0] = 1;
        at = 1;
        for (int i = 1; i < n; ++i) displs[static_cast<std::size_t>(i)] = 1;
    }
    const bool pow2 = (n & (n - 1)) == 0;

    World w(n);
    w.run([&](Comm& c) {
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> send(std::max<std::size_t>(mine, 1));
        for (std::size_t j = 0; j < mine; ++j) {
            send[j] = 10000.0 * c.rank() + static_cast<double>(j);
        }
        std::vector<std::vector<double>> results;
        for (auto algo : {coll::AllgathervAlgo::Auto, coll::AllgathervAlgo::Ring,
                          coll::AllgathervAlgo::RecursiveDoubling,
                          coll::AllgathervAlgo::Dissemination}) {
            if (algo == coll::AllgathervAlgo::RecursiveDoubling && !pow2) continue;
            std::vector<double> recv(at, -1.0);
            coll::CollConfig cfg;
            cfg.allgatherv_algo = algo;
            coll::allgatherv(c, send.data(), mine, Datatype::float64(), recv.data(), counts,
                             displs, Datatype::float64(), cfg);
            results.push_back(std::move(recv));
        }
        for (std::size_t r = 1; r < results.size(); ++r) {
            EXPECT_EQ(results[r], results[0]) << "algo variant " << r << " n=" << n;
        }
        // And the contents are right.
        for (int i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < counts[static_cast<std::size_t>(i)]; ++j) {
                EXPECT_DOUBLE_EQ(results[0][displs[static_cast<std::size_t>(i)] + j],
                                 10000.0 * i + static_cast<double>(j));
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllgathervFuzz, ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// point-to-point storms

TEST(RuntimeStorm, ManyToManyRandomTagsAndSizes) {
    const int n = 6;
    World w(n);
    w.run([&](Comm& c) {
        Rng rng(777 + static_cast<std::uint64_t>(c.rank()));
        constexpr int kMsgsPerPair = 20;
        // Everyone sends kMsgsPerPair messages to every other rank; message
        // m to peer p carries tag m and a size derived from (sender, m).
        std::vector<rt::Request> recvs;
        std::vector<std::vector<int>> recv_bufs;
        for (int src = 0; src < n; ++src) {
            if (src == c.rank()) continue;
            for (int m = 0; m < kMsgsPerPair; ++m) {
                const std::size_t len = 1 + static_cast<std::size_t>((src * 31 + m * 7) % 97);
                recv_bufs.emplace_back(len, -1);
                recvs.push_back(c.irecv(recv_bufs.back().data(), len * 4, Datatype::byte(),
                                        src, m));
            }
        }
        for (int dst = 0; dst < n; ++dst) {
            if (dst == c.rank()) continue;
            for (int m = 0; m < kMsgsPerPair; ++m) {
                const std::size_t len =
                    1 + static_cast<std::size_t>((c.rank() * 31 + m * 7) % 97);
                std::vector<int> payload(len);
                for (std::size_t j = 0; j < len; ++j) {
                    payload[j] = c.rank() * 100000 + m * 1000 + static_cast<int>(j);
                }
                c.send(payload.data(), len * 4, Datatype::byte(), dst, m);
            }
        }
        c.waitall(recvs);
        // Validate every received buffer.
        std::size_t idx = 0;
        for (int src = 0; src < n; ++src) {
            if (src == c.rank()) continue;
            for (int m = 0; m < kMsgsPerPair; ++m, ++idx) {
                const auto& buf = recv_bufs[idx];
                for (std::size_t j = 0; j < buf.size(); ++j) {
                    ASSERT_EQ(buf[j], src * 100000 + m * 1000 + static_cast<int>(j))
                        << "src=" << src << " m=" << m << " j=" << j;
                }
            }
        }
    });
}

TEST(RuntimeStorm, InterleavedCollectivesAndPointToPoint) {
    // Collectives on the internal context must not disturb user p2p
    // traffic that is in flight, including wildcard receives.
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        // Post a wildcard receive that stays pending across collectives.
        int late = -1;
        rt::Request pending =
            c.irecv(&late, sizeof(int), Datatype::byte(), rt::kAnySource, 999);

        for (int round = 0; round < 10; ++round) {
            double v = c.rank() + round;
            coll::allreduce(c, &v, 1, coll::ReduceOp::Sum);
            EXPECT_DOUBLE_EQ(v, n * round + n * (n - 1) / 2.0);
            c.barrier();
        }

        // Now satisfy the pending wildcard from the left neighbor.
        const int to = (c.rank() + 1) % n;
        const int payload = c.rank() * 11;
        c.send(&payload, sizeof(int), Datatype::byte(), to, 999);
        c.wait(pending);
        EXPECT_EQ(late, ((c.rank() + n - 1) % n) * 11);
    });
}

}  // namespace
