// Tests for datatype construction, size/extent semantics and flattening.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <numeric>
#include <vector>

#include "datatype/datatype.hpp"
#include "datatype/flatten.hpp"
#include "datatype/pack.hpp"

namespace {

using nncomm::dt::Datatype;
using nncomm::dt::FlatBlock;

TEST(Builtin, SizesAndContiguity) {
    EXPECT_EQ(Datatype::float64().size(), 8u);
    EXPECT_EQ(Datatype::float64().extent(), 8);
    EXPECT_TRUE(Datatype::float64().is_contiguous());
    EXPECT_EQ(Datatype::int32().size(), 4u);
    EXPECT_EQ(Datatype::byte().size(), 1u);
    EXPECT_EQ(Datatype::float64().block_count(), 1u);
}

TEST(Contiguous, OfBuiltinIsOneBlock) {
    auto t = Datatype::contiguous(10, Datatype::float64());
    EXPECT_EQ(t.size(), 80u);
    EXPECT_EQ(t.extent(), 80);
    EXPECT_TRUE(t.is_contiguous());
    ASSERT_EQ(t.flat().block_count(), 1u);
    EXPECT_EQ(t.flat().blocks()[0].offset, 0);
    EXPECT_EQ(t.flat().blocks()[0].length, 80u);
}

TEST(Contiguous, ZeroCount) {
    auto t = Datatype::contiguous(0, Datatype::float64());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.extent(), 0);
    EXPECT_EQ(t.flat().block_count(), 0u);
}

TEST(Vector, ColumnOfMatrix) {
    // Paper Figures 4-6: 8x8 matrix, element = contiguous(3 doubles);
    // first column = vector(count=8, blocklen=1, stride=8 elements).
    auto elem = Datatype::contiguous(3, Datatype::float64());
    auto col = Datatype::vector(8, 1, 8, elem);
    EXPECT_EQ(col.size(), 8u * 24u);
    // Extent spans from row 0 element 0 to row 7 element 0 end.
    EXPECT_EQ(col.extent(), 7 * 8 * 24 + 24);
    EXPECT_FALSE(col.is_contiguous());
    ASSERT_EQ(col.flat().block_count(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(col.flat().blocks()[i].offset, static_cast<std::ptrdiff_t>(i * 8 * 24));
        EXPECT_EQ(col.flat().blocks()[i].length, 24u);
    }
}

TEST(Vector, StrideEqualToBlocklengthMergesToOneBlock) {
    auto t = Datatype::vector(5, 4, 4, Datatype::float64());
    EXPECT_EQ(t.size(), 5u * 4u * 8u);
    EXPECT_EQ(t.flat().block_count(), 1u);
    EXPECT_TRUE(t.flat().contiguous());
}

TEST(Vector, NegativeStride) {
    auto t = Datatype::vector(3, 1, -2, Datatype::float64());
    EXPECT_EQ(t.size(), 24u);
    EXPECT_EQ(t.lb(), -32);  // last block starts at -2*2*8
    EXPECT_EQ(t.extent(), 40);
    ASSERT_EQ(t.flat().block_count(), 3u);
    EXPECT_EQ(t.flat().blocks()[0].offset, 0);
    EXPECT_EQ(t.flat().blocks()[1].offset, -16);
    EXPECT_EQ(t.flat().blocks()[2].offset, -32);
}

TEST(Hvector, ByteStride) {
    auto t = Datatype::hvector(4, 2, 100, Datatype::int32());
    EXPECT_EQ(t.size(), 32u);
    ASSERT_EQ(t.flat().block_count(), 4u);
    EXPECT_EQ(t.flat().blocks()[3].offset, 300);
    EXPECT_EQ(t.flat().blocks()[3].length, 8u);
}

TEST(Indexed, BasicLayout) {
    std::vector<std::size_t> lens{2, 1, 3};
    std::vector<std::ptrdiff_t> displs{0, 5, 10};  // in elements
    auto t = Datatype::indexed(lens, displs, Datatype::float64());
    EXPECT_EQ(t.size(), 6u * 8u);
    ASSERT_EQ(t.flat().block_count(), 3u);
    EXPECT_EQ(t.flat().blocks()[0].offset, 0);
    EXPECT_EQ(t.flat().blocks()[0].length, 16u);
    EXPECT_EQ(t.flat().blocks()[1].offset, 40);
    EXPECT_EQ(t.flat().blocks()[2].offset, 80);
    EXPECT_EQ(t.flat().blocks()[2].length, 24u);
}

TEST(Indexed, AdjacentBlocksMerge) {
    std::vector<std::size_t> lens{2, 2};
    std::vector<std::ptrdiff_t> displs{0, 2};
    auto t = Datatype::indexed(lens, displs, Datatype::float64());
    EXPECT_EQ(t.flat().block_count(), 1u);
    EXPECT_EQ(t.flat().blocks()[0].length, 32u);
}

TEST(Indexed, ZeroLengthBlocksSkipped) {
    std::vector<std::size_t> lens{0, 3, 0};
    std::vector<std::ptrdiff_t> displs{0, 4, 20};
    auto t = Datatype::indexed(lens, displs, Datatype::float64());
    EXPECT_EQ(t.size(), 24u);
    EXPECT_EQ(t.flat().block_count(), 1u);
    EXPECT_EQ(t.flat().blocks()[0].offset, 32);
}

TEST(Indexed, MismatchedArgumentsRejected) {
    std::vector<std::size_t> lens{1, 2};
    std::vector<std::ptrdiff_t> displs{0};
    EXPECT_THROW(Datatype::indexed(lens, displs, Datatype::float64()), nncomm::Error);
}

TEST(Hindexed, ByteDisplacements) {
    std::vector<std::size_t> lens{1, 1};
    std::vector<std::ptrdiff_t> displs{3, 11};
    auto t = Datatype::hindexed(lens, displs, Datatype::int32());
    ASSERT_EQ(t.flat().block_count(), 2u);
    EXPECT_EQ(t.flat().blocks()[0].offset, 3);
    EXPECT_EQ(t.flat().blocks()[1].offset, 11);
    EXPECT_EQ(t.lb(), 3);
    EXPECT_EQ(t.extent(), 12);
}

TEST(IndexedBlock, UniformBlocks) {
    std::vector<std::ptrdiff_t> displs{0, 10, 20, 30};
    auto t = Datatype::indexed_block(2, displs, Datatype::float64());
    EXPECT_EQ(t.size(), 8u * 8u);
    EXPECT_EQ(t.flat().block_count(), 4u);
    EXPECT_EQ(t.flat().blocks()[1].offset, 80);
}

TEST(Struct, MixedTypes) {
    // {int32 a; double b[2];} with natural alignment at 0 and 8.
    std::vector<std::size_t> lens{1, 2};
    std::vector<std::ptrdiff_t> displs{0, 8};
    std::vector<Datatype> types{Datatype::int32(), Datatype::float64()};
    auto t = Datatype::struct_type(lens, displs, types);
    EXPECT_EQ(t.size(), 4u + 16u);
    EXPECT_EQ(t.extent(), 24);
    ASSERT_EQ(t.flat().block_count(), 2u);
    EXPECT_EQ(t.flat().blocks()[0].length, 4u);
    EXPECT_EQ(t.flat().blocks()[1].offset, 8);
    EXPECT_EQ(t.flat().blocks()[1].length, 16u);
}

TEST(Struct, NestedDerivedChildren) {
    auto col = Datatype::vector(3, 1, 2, Datatype::float64());
    std::vector<std::size_t> lens{2};
    std::vector<std::ptrdiff_t> displs{100};
    std::vector<Datatype> types{col};
    auto t = Datatype::struct_type(lens, displs, types);
    EXPECT_EQ(t.size(), 2u * 24u);
    // col has blocks at +0, +16, +32 and extent 40, so the second instance
    // (base +140) starts adjacent to the first instance's last block
    // (132..140) and the two merge: 5 blocks, not 6.
    EXPECT_EQ(t.flat().block_count(), 5u);
    EXPECT_EQ(t.flat().blocks()[0].offset, 100);
}

TEST(Subarray, Interior2DRegion) {
    // 6x8 array of doubles, take rows 1..3, cols 2..5 (3x4 region).
    std::array<std::size_t, 2> sizes{6, 8};
    std::array<std::size_t, 2> subsizes{3, 4};
    std::array<std::size_t, 2> starts{1, 2};
    auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::float64());
    EXPECT_EQ(t.size(), 12u * 8u);
    EXPECT_EQ(t.extent(), 6 * 8 * 8);  // resized to the full array
    ASSERT_EQ(t.flat().block_count(), 3u);
    EXPECT_EQ(t.flat().blocks()[0].offset, (1 * 8 + 2) * 8);
    EXPECT_EQ(t.flat().blocks()[0].length, 32u);
    EXPECT_EQ(t.flat().blocks()[1].offset, (2 * 8 + 2) * 8);
}

TEST(Subarray, FullArrayIsOneBlock) {
    std::array<std::size_t, 3> sizes{4, 5, 6};
    std::array<std::size_t, 3> subsizes{4, 5, 6};
    std::array<std::size_t, 3> starts{0, 0, 0};
    auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::float64());
    EXPECT_EQ(t.flat().block_count(), 1u);
    EXPECT_EQ(t.size(), 4u * 5u * 6u * 8u);
}

TEST(Subarray, 3DFaceRegion) {
    // 10x10x10 doubles, one k-face of thickness 1: 10x10x1 at k=9 ->
    // 100 isolated 8-byte blocks.
    std::array<std::size_t, 3> sizes{10, 10, 10};
    std::array<std::size_t, 3> subsizes{10, 10, 1};
    std::array<std::size_t, 3> starts{0, 0, 9};
    auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::float64());
    EXPECT_EQ(t.size(), 800u);
    EXPECT_EQ(t.flat().block_count(), 100u);
    EXPECT_EQ(t.flat().blocks()[0].offset, 9 * 8);
}

TEST(Subarray, OutOfBoundsRejected) {
    std::array<std::size_t, 2> sizes{4, 4};
    std::array<std::size_t, 2> subsizes{2, 2};
    std::array<std::size_t, 2> starts{3, 0};
    EXPECT_THROW(Datatype::subarray(sizes, subsizes, starts, Datatype::float64()),
                 nncomm::Error);
}

TEST(Resized, ChangesExtentOnly) {
    auto t = Datatype::resized(Datatype::float64(), 0, 32);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.extent(), 32);
    EXPECT_FALSE(t.is_contiguous());
}

TEST(Resized, DrivesInstanceStrideInPack) {
    // Two instances of an 8-byte double resized to 32-byte extent read from
    // offsets 0 and 32.
    auto t = Datatype::resized(Datatype::float64(), 0, 32);
    std::vector<double> buf(8);
    std::iota(buf.begin(), buf.end(), 0.0);
    auto packed = nncomm::dt::pack_all(buf.data(), t, 2);
    ASSERT_EQ(packed.size(), 16u);
    double a = 0, b = 0;
    std::memcpy(&a, packed.data(), 8);
    std::memcpy(&b, packed.data() + 8, 8);
    EXPECT_DOUBLE_EQ(a, 0.0);
    EXPECT_DOUBLE_EQ(b, 4.0);  // 32 bytes = 4 doubles
}

TEST(FlatType, PrefixSumsAndStats) {
    auto elem = Datatype::contiguous(3, Datatype::float64());
    auto col = Datatype::vector(4, 1, 8, elem);
    const auto& f = col.flat();
    EXPECT_EQ(f.size(), 96u);
    EXPECT_EQ(f.prefix_bytes().size(), 5u);
    EXPECT_EQ(f.prefix_bytes()[0], 0u);
    EXPECT_EQ(f.prefix_bytes()[4], 96u);
}

TEST(FlatType, BornFlatTableIsSizedToItsBlockCount) {
    // Indexed types over a contiguous element build their table while
    // reading their arguments, reserving one block per argument. Merged
    // and zero-length arguments leave fewer blocks, and the finished table
    // keeps no storage beyond them.
    std::vector<std::size_t> ones(1000, 1);
    std::vector<std::ptrdiff_t> runs(1000);  // three long runs
    for (std::size_t i = 0; i < runs.size(); ++i) {
        runs[i] = static_cast<std::ptrdiff_t>(8 * (i < 400 ? i : i < 700 ? i + 50 : i + 90));
    }
    std::vector<std::size_t> lens{2, 0, 1, 3, 0};
    std::vector<std::ptrdiff_t> displs{0, 7, 2, 9, 30};
    std::vector<std::ptrdiff_t> blocks{0, 2, 6};
    const std::vector<Datatype> types{
        Datatype::hindexed(ones, runs, Datatype::float64()),
        Datatype::indexed(lens, displs, Datatype::float64()),
        Datatype::indexed_block(2, blocks, Datatype::int32()),
        Datatype::hindexed({}, {}, Datatype::float64()),
    };
    const std::vector<std::size_t> want{3, 2, 2, 0};
    for (std::size_t t = 0; t < types.size(); ++t) {
        const nncomm::dt::FlatType& f = types[t].flat();
        EXPECT_EQ(f.block_count(), want[t]) << t;
        EXPECT_EQ(f.blocks().capacity(), f.block_count()) << t;
        EXPECT_EQ(f.prefix_bytes().capacity(), f.block_count() + 1) << t;
        EXPECT_EQ(f.prefix_bytes().back(), f.size()) << t;
    }
    EXPECT_EQ(types[0].flat().data_ub(), 8 * (999 + 90 + 1));

    // A parent nesting a born-flat type emits from its table: two
    // instances of {[0, 24), [72, 96)} at extent 96, where the first
    // instance's tail merges with the second's head.
    const Datatype pair = Datatype::contiguous(2, types[1]);
    const auto& pb = pair.flat().blocks();
    ASSERT_EQ(pb.size(), 3u);
    EXPECT_EQ(pb[0].offset, 0);
    EXPECT_EQ(pb[0].length, 24u);
    EXPECT_EQ(pb[1].offset, 72);
    EXPECT_EQ(pb[1].length, 48u);
    EXPECT_EQ(pb[2].offset, 96 + 72);
    EXPECT_EQ(pb[2].length, 24u);
}

TEST(Nesting, VectorOfVectorBlockStructure) {
    // Column-major full-matrix type from the transpose benchmark: an NxN
    // matrix of 3-double elements sent column by column = N*N blocks.
    constexpr std::size_t n = 16;
    auto elem = Datatype::contiguous(3, Datatype::float64());
    auto col = Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), elem);
    auto col_resized = Datatype::resized(col, 0, elem.extent());  // next col starts 1 elem over
    auto matrix = Datatype::contiguous(n, col_resized);
    EXPECT_EQ(matrix.size(), n * n * 24u);
    EXPECT_EQ(matrix.flat().block_count(), n * n);
}

}  // namespace
