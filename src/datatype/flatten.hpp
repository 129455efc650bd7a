// Flattened datatype representation: a stream of maximal contiguous blocks.
//
// The pack engines (engine.hpp) operate on an ordered array of
// (offset, length) blocks for a single type instance. Every datatype is
// born flat: its constructor fills this table through FlatBuilder from its
// children's tables in the loop that reads its arguments, and no type tree
// is kept. Adjacent blocks are merged, so a "contiguous of 3 doubles" leaf
// becomes one 24-byte block and a fully dense type becomes exactly one
// block.
//
// This mirrors what production MPI implementations do (MPICH dataloops /
// Open MPI's opal_convertor flattened descriptions) and gives the engines a
// well-defined notion of "signature element" — one block — which is the
// unit both the paper's look-ahead window (~15 elements) and the baseline's
// quadratic re-search are counted in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/error.hpp"

namespace nncomm::dt {

/// One maximal contiguous region, relative to the type's origin.
struct FlatBlock {
    std::ptrdiff_t offset = 0;  ///< bytes from the buffer base
    std::size_t length = 0;     ///< bytes, > 0
};

class FlatBuilder;

/// Immutable flattened form of one datatype instance. Built only through
/// FlatBuilder, which fills every field while it appends the blocks.
class FlatType {
public:
    const std::vector<FlatBlock>& blocks() const { return blocks_; }
    std::size_t block_count() const { return blocks_.size(); }
    std::size_t size() const { return size_; }          ///< total data bytes
    std::ptrdiff_t extent() const { return extent_; }   ///< instance stride
    std::ptrdiff_t lb() const { return lb_; }
    /// True when one instance is one dense run: no block, or one block at
    /// offset 0, with size == extent and lb 0. The one test every dense
    /// fast path reads.
    bool contiguous() const {
        return lb_ == 0 && static_cast<std::ptrdiff_t>(size_) == extent_ &&
               (blocks_.empty() || (blocks_.size() == 1 && blocks_[0].offset == 0));
    }

    /// Lowest byte offset actually touched by one instance (<= 0 possible).
    std::ptrdiff_t data_lb() const { return data_lb_; }
    /// One past the highest byte offset actually touched by one instance.
    /// Can exceed extent() for resized types — buffers must be sized by
    /// (count - 1) * extent() + data_ub(), not count * extent().
    std::ptrdiff_t data_ub() const { return data_ub_; }

    /// Cumulative data bytes before block i (prefix_bytes()[block_count()] ==
    /// size()). Used by tests and by O(1) cursor re-positioning in the
    /// *optimized* engine's bookkeeping (the baseline deliberately walks).
    const std::vector<std::uint64_t>& prefix_bytes() const { return prefix_; }

private:
    friend class FlatBuilder;
    FlatType() = default;

    std::vector<FlatBlock> blocks_;
    std::vector<std::uint64_t> prefix_;
    std::size_t size_ = 0;
    std::ptrdiff_t extent_ = 0;
    std::ptrdiff_t lb_ = 0;
    std::ptrdiff_t data_lb_ = 0;
    std::ptrdiff_t data_ub_ = 0;
};

/// Appends blocks, merging adjacencies, and keeps the size, prefix sums
/// and data bounds current as it goes, so finishing the table costs no
/// further pass over it.
class FlatBuilder {
public:
    /// Expected number of blocks to come; finish() trims what merges left
    /// unused.
    void reserve(std::size_t blocks) {
        t_.blocks_.reserve(blocks);
        t_.prefix_.reserve(blocks + 1);
    }

    /// Appends block(0) .. block(count - 1), each a FlatBlock. A block that
    /// starts where the previous one ends extends it; empty blocks vanish.
    /// The merge test compares each block with its predecessor's end, held
    /// in a local, and the last block's length is stored only when its run
    /// ends, so a merge costs one compare.
    template <typename Block>
    void append(std::size_t count, Block block) {
        auto& blocks = t_.blocks_;
        bool open = !blocks.empty();
        std::ptrdiff_t start = open ? blocks.back().offset : 0;
        std::ptrdiff_t end = open ? start + static_cast<std::ptrdiff_t>(blocks.back().length) : 0;
        std::uint64_t closed = t_.size_ - (open ? blocks.back().length : 0);
        std::ptrdiff_t lo = t_.data_lb_, hi = t_.data_ub_;
        for (std::size_t i = 0; i < count; ++i) {
            const FlatBlock b = block(i);
            if (b.length == 0) continue;
            if (!open || b.offset != end) {
                if (open) {
                    const auto length = static_cast<std::size_t>(end - start);
                    blocks.back().length = length;
                    closed += length;
                    hi = std::max(hi, end);
                    lo = std::min(lo, b.offset);
                    if (blocks.size() >= kMaxBlocks) [[unlikely]] too_fragmented();
                } else {
                    lo = b.offset;
                    hi = b.offset;
                    open = true;
                }
                t_.prefix_.push_back(closed);
                blocks.push_back(b);
                start = b.offset;
            }
            end = b.offset + static_cast<std::ptrdiff_t>(b.length);
        }
        if (open) {
            blocks.back().length = static_cast<std::size_t>(end - start);
            t_.size_ = closed + blocks.back().length;
            hi = std::max(hi, end);
        }
        t_.data_lb_ = lo;
        t_.data_ub_ = hi;
    }

    void add(std::ptrdiff_t offset, std::size_t length) {
        append(1, [=](std::size_t) { return FlatBlock{offset, length}; });
    }

    /// Data bounds of the blocks appended so far.
    std::ptrdiff_t data_lb() const { return t_.data_lb_; }
    std::ptrdiff_t data_ub() const { return t_.data_ub_; }

    /// The finished table of one instance with the given extent and lower
    /// bound, its storage trimmed to its block count.
    FlatType finish(std::ptrdiff_t extent, std::ptrdiff_t lb) && {
        t_.prefix_.push_back(t_.size_);
        if (t_.blocks_.capacity() != t_.blocks_.size()) t_.blocks_.shrink_to_fit();
        if (t_.prefix_.capacity() != t_.prefix_.size()) t_.prefix_.shrink_to_fit();
        t_.extent_ = extent;
        t_.lb_ = lb;
        return std::move(t_);
    }

    static constexpr std::size_t kMaxBlocks = std::size_t{1} << 27;  // 128M blocks

private:
    [[noreturn]] static void too_fragmented();

    FlatType t_;
};

}  // namespace nncomm::dt
