// Tests for TypeCursor: advancing, signature walking, linear re-search and
// indexed seek, plus reference pack/unpack round-trips.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/rng.hpp"
#include "datatype/cursor.hpp"
#include "datatype/pack.hpp"
#include "typemap_model.hpp"

namespace {

using nncomm::Rng;
using nncomm::StatCounters;
using nncomm::dt::Datatype;
using nncomm::dt::TypeCursor;

Datatype column_type(std::size_t n) {
    auto elem = Datatype::contiguous(3, Datatype::float64());
    return Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), elem);
}

TEST(Cursor, FreshCursorAtStart) {
    auto t = column_type(8);
    TypeCursor cur(&t.flat(), 1);
    EXPECT_EQ(cur.position(), 0u);
    EXPECT_EQ(cur.total_bytes(), 8u * 24u);
    EXPECT_FALSE(cur.at_end());
    EXPECT_EQ(cur.current_offset(), 0);
    EXPECT_EQ(cur.current_block_remaining(), 24u);
}

TEST(Cursor, AdvanceWithinBlock) {
    auto t = column_type(8);
    TypeCursor cur(&t.flat(), 1);
    cur.advance(10);
    EXPECT_EQ(cur.position(), 10u);
    EXPECT_EQ(cur.current_offset(), 10);
    EXPECT_EQ(cur.current_block_remaining(), 14u);
}

TEST(Cursor, AdvanceAcrossBlocks) {
    auto t = column_type(8);
    TypeCursor cur(&t.flat(), 1);
    cur.advance(24 + 5);  // into block 1
    EXPECT_EQ(cur.current_offset(), 8 * 24 + 5);
    cur.advance(19 + 24);  // consume rest of block 1 and all of block 2
    EXPECT_EQ(cur.current_offset(), 3 * 8 * 24);
}

TEST(Cursor, AdvanceToEnd) {
    auto t = column_type(4);
    TypeCursor cur(&t.flat(), 1);
    cur.advance(cur.total_bytes());
    EXPECT_TRUE(cur.at_end());
}

TEST(Cursor, MultipleInstancesUseExtentStride) {
    // Two instances of the column type: the second starts extent() bytes in.
    auto t = column_type(4);
    TypeCursor cur(&t.flat(), 2);
    EXPECT_EQ(cur.total_bytes(), 2u * 4u * 24u);
    cur.advance(4 * 24);  // finished first instance
    EXPECT_EQ(cur.current_offset(), t.extent());
}

TEST(Cursor, SkipBlockWalksSignature) {
    auto t = column_type(8);
    TypeCursor cur(&t.flat(), 1);
    EXPECT_EQ(cur.skip_block(), 24u);
    EXPECT_EQ(cur.position(), 24u);
    cur.advance(4);
    EXPECT_EQ(cur.skip_block(), 20u);  // partial block
}

TEST(Cursor, RewindResets) {
    auto t = column_type(8);
    TypeCursor cur(&t.flat(), 1);
    cur.advance(100);
    cur.rewind();
    EXPECT_EQ(cur.position(), 0u);
    EXPECT_EQ(cur.current_offset(), 0);
}

TEST(Cursor, SeekLinearCountsVisitedBlocks) {
    auto t = column_type(16);  // 16 blocks of 24 bytes
    TypeCursor cur(&t.flat(), 1);
    StatCounters c;
    cur.seek_linear(10 * 24, c);
    EXPECT_EQ(cur.position(), 240u);
    EXPECT_EQ(c.search_events, 1u);
    EXPECT_EQ(c.search_blocks_visited, 10u);
    // Mid-block target still visits the containing block.
    cur.seek_linear(10 * 24 + 7, c);
    EXPECT_EQ(c.search_events, 2u);
    EXPECT_EQ(c.search_blocks_visited, 10u + 11u);
    EXPECT_EQ(cur.current_block_remaining(), 17u);
}

TEST(Cursor, SeekLinearBeyondEndRejected) {
    auto t = column_type(4);
    TypeCursor cur(&t.flat(), 1);
    StatCounters c;
    EXPECT_THROW(cur.seek_linear(cur.total_bytes() + 1, c), nncomm::Error);
}

TEST(Cursor, SeekIndexedMatchesSeekLinear) {
    auto t = column_type(32);
    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        const auto target = rng.uniform_u64(0, 3 * 32 * 24);  // count=3 instances
        TypeCursor a(&t.flat(), 3);
        TypeCursor b(&t.flat(), 3);
        StatCounters c;
        a.seek_linear(target, c);
        b.seek_indexed(target);
        EXPECT_EQ(a.position(), b.position());
        if (!a.at_end()) {
            EXPECT_EQ(a.current_offset(), b.current_offset());
            EXPECT_EQ(a.current_block_remaining(), b.current_block_remaining());
        }
    }
}

TEST(Cursor, SeekIndexedToEnd) {
    auto t = column_type(4);
    TypeCursor cur(&t.flat(), 2);
    cur.seek_indexed(cur.total_bytes());
    EXPECT_TRUE(cur.at_end());
}

// ---------------------------------------------------------------------------
// pack/unpack round trips

TEST(Pack, ColumnExtraction) {
    // 8x8 matrix of 3-double elements; packing the column type must yield
    // exactly the first column's values.
    constexpr std::size_t n = 8;
    std::vector<double> m(n * n * 3);
    std::iota(m.begin(), m.end(), 0.0);
    auto col = column_type(n);
    auto packed = nncomm::dt::pack_all(m.data(), col, 1);
    ASSERT_EQ(packed.size(), n * 24u);
    const double* p = reinterpret_cast<const double*>(packed.data());
    for (std::size_t row = 0; row < n; ++row) {
        for (std::size_t k = 0; k < 3; ++k) {
            EXPECT_DOUBLE_EQ(p[row * 3 + k], static_cast<double>(row * n * 3 + k));
        }
    }
}

TEST(Pack, UnpackScattersBack) {
    constexpr std::size_t n = 8;
    std::vector<double> src(n * n * 3);
    std::iota(src.begin(), src.end(), 0.0);
    auto col = column_type(n);
    auto packed = nncomm::dt::pack_all(src.data(), col, 1);

    std::vector<double> dst(n * n * 3, -1.0);
    nncomm::dt::unpack_from(dst.data(), col, 1, packed);
    for (std::size_t row = 0; row < n; ++row) {
        for (std::size_t k = 0; k < 3; ++k) {
            EXPECT_DOUBLE_EQ(dst[row * n * 3 + k], src[row * n * 3 + k]);
        }
    }
    // Untouched positions stay -1.
    EXPECT_DOUBLE_EQ(dst[3], -1.0);
}

TEST(Pack, PartialPackResumesCorrectly) {
    constexpr std::size_t n = 16;
    std::vector<double> m(n * n * 3);
    std::iota(m.begin(), m.end(), 0.0);
    auto col = column_type(n);

    auto whole = nncomm::dt::pack_all(m.data(), col, 1);

    // Pack in awkward chunk sizes and compare.
    TypeCursor cur(&col.flat(), 1);
    std::vector<std::byte> piecewise(whole.size());
    std::size_t off = 0;
    const std::size_t chunks[] = {1, 7, 23, 64, 5, 1000000};
    for (std::size_t c : chunks) {
        if (cur.at_end()) break;
        const std::size_t want = std::min(c, piecewise.size() - off);
        off += nncomm::dt::pack_bytes(reinterpret_cast<const std::byte*>(m.data()), cur,
                                      std::span<std::byte>(piecewise.data() + off, want));
    }
    ASSERT_EQ(off, whole.size());
    EXPECT_EQ(std::memcmp(piecewise.data(), whole.data(), whole.size()), 0);
}

// Property: pack followed by unpack into a zeroed buffer reproduces exactly
// the bytes the type covers, for randomized type trees. Coverage comes from
// the trees' typemap models, which the flattened table must also equal.
class PackRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackRoundTrip, RandomTypeTrees) {
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    const nncomm::test::ModelledType mt =
        nncomm::test::random_type(rng, static_cast<int>(rng.uniform_u64(1, 4)));
    const Datatype& t = mt.type;
    const std::size_t count = rng.uniform_u64(1, 3);
    ASSERT_EQ(nncomm::test::block_list(t.flat().blocks()),
              nncomm::test::block_list(mt.model.blocks()))
        << "seed " << seed;
    ASSERT_GE(t.flat().data_lb(), 0) << "generator must not produce negative offsets";

    // Buffer covering count instances (offsets and extents are nonnegative
    // here; resized types can touch data past their extent).
    const std::size_t span = static_cast<std::size_t>(
        mt.model.extent() * static_cast<std::ptrdiff_t>(count - 1) + mt.model.data_ub() + 64);
    std::vector<std::byte> src(span);
    for (std::size_t i = 0; i < span; ++i) src[i] = static_cast<std::byte>(i * 131 + 7);

    auto packed = nncomm::dt::pack_all(src.data(), t, count);
    EXPECT_EQ(packed.size(), mt.model.size() * count);

    std::vector<std::byte> dst(span, std::byte{0});
    nncomm::dt::unpack_from(dst.data(), t, count, packed);

    // Every byte the type covers must match src; the rest must stay zero.
    std::vector<bool> covered(span, false);
    for (std::size_t rep = 0; rep < count; ++rep) {
        for (const auto& e : mt.model.elems) {
            const std::ptrdiff_t base =
                static_cast<std::ptrdiff_t>(rep) * mt.model.extent() + e.offset;
            for (std::size_t j = 0; j < e.length; ++j) {
                covered[static_cast<std::size_t>(base) + j] = true;
            }
        }
    }
    for (std::size_t i = 0; i < span; ++i) {
        if (covered[i]) {
            EXPECT_EQ(dst[i], src[i]) << "seed " << seed << " at " << i;
        } else {
            EXPECT_EQ(dst[i], std::byte{0}) << "seed " << seed << " at " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PackRoundTrip, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
