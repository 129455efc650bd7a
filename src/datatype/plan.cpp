#include "datatype/plan.hpp"

#include <algorithm>
#include <cstring>

#include "core/counters.hpp"

namespace nncomm::dt {

namespace {

// 2-D nested pattern: a run of `inner` blocks at constant stride `si`,
// repeated at constant outer stride `so` (the DMDA face-exchange and
// transpose-column shape). Requires at least two groups of at least two
// blocks; a full-length single run is plain Strided and never reaches here.
bool detect_blocked(const std::vector<FlatBlock>& blocks, std::size_t& inner,
                    std::ptrdiff_t& si, std::ptrdiff_t& so) {
    const std::size_t B = blocks.size();
    if (B < 4) return false;
    si = blocks[1].offset - blocks[0].offset;
    std::size_t I = 2;
    while (I < B && blocks[I].offset - blocks[I - 1].offset == si) ++I;
    if (I == B || B % I != 0) return false;
    so = blocks[I].offset - blocks[0].offset;
    const std::size_t G = B / I;
    if (G < 2) return false;
    for (std::size_t g = 0; g < G; ++g) {
        const std::ptrdiff_t start =
            blocks[0].offset + static_cast<std::ptrdiff_t>(g) * so;
        for (std::size_t k = 0; k < I; ++k) {
            if (blocks[g * I + k].offset != start + static_cast<std::ptrdiff_t>(k) * si) {
                return false;
            }
        }
    }
    inner = I;
    return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// compilation

PackPlan PackPlan::compile(const FlatType& flat) {
    PackPlan p;
    p.instance_size_ = flat.size();
    p.extent_ = flat.extent();

    const auto& blocks = flat.blocks();
    if (blocks.empty()) {
        p.kernel_ = PackKernel::Contiguous;  // zero-size type: nothing to move
        return p;
    }
    p.first_offset_ = blocks.front().offset;
    p.blocks_per_instance_ = blocks.size();
    p.block_len_ = blocks.front().length;
    p.tail_len_ = blocks.back().length;

    if (blocks.size() == 1 &&
        static_cast<std::ptrdiff_t>(flat.size()) == flat.extent()) {
        // Consecutive instances tile memory densely: the whole message is
        // one run starting at first_offset_.
        p.kernel_ = PackKernel::Contiguous;
        return p;
    }

    const std::size_t B = blocks.size();
    // Uniform prefix: every block but possibly the last has the leading
    // length. A shorter trailing block (odd-count vector types) stays
    // Strided; a longer one cannot (the vector run math assumes tail <= L).
    bool prefix_uniform = true;
    for (std::size_t i = 1; i + 1 < B; ++i) {
        if (blocks[i].length != p.block_len_) {
            prefix_uniform = false;
            break;
        }
    }
    const bool uniform = prefix_uniform && p.tail_len_ == p.block_len_;
    const bool uniform_with_tail =
        prefix_uniform && B >= 2 && p.tail_len_ < p.block_len_;

    if (uniform || uniform_with_tail) {
        std::ptrdiff_t stride = 0;
        bool arithmetic = true;
        if (B >= 2) {
            stride = blocks[1].offset - blocks[0].offset;
            for (std::size_t i = 2; i < B; ++i) {
                if (blocks[i].offset - blocks[i - 1].offset != stride) {
                    arithmetic = false;
                    break;
                }
            }
        }
        if (arithmetic) {
            p.kernel_ = PackKernel::Strided;
            p.stride_ = stride;
            p.kernels_ = simd::select(p.block_len_);
            return p;
        }
        if (uniform) {
            std::size_t inner = 0;
            std::ptrdiff_t si = 0, so = 0;
            if (detect_blocked(blocks, inner, si, so)) {
                p.kernel_ = PackKernel::BlockedStrided;
                p.inner_blocks_ = inner;
                p.stride_ = si;
                p.outer_stride_ = so;
                p.kernels_ = simd::select(p.block_len_);
                return p;
            }
        }
    }

    p.kernel_ = PackKernel::Irregular;
    return p;
}

// ---------------------------------------------------------------------------
// kernels

void PackPlan::pack_range(const FlatType& flat, const std::byte* base,
                          [[maybe_unused]] std::size_t count, std::uint64_t pos,
                          std::span<std::byte> out, StatCounters* stats) const {
    std::size_t n = out.size();
    if (n == 0) return;
    NNCOMM_ASSERT(pos + n <= static_cast<std::uint64_t>(instance_size_) * count);
    if (stats) ++stats->dt_kernel_dispatch[static_cast<std::size_t>(kernel_)];
    std::byte* dst = out.data();

    switch (kernel_) {
        case PackKernel::Contiguous:
            std::memcpy(dst, base + first_offset_ + static_cast<std::ptrdiff_t>(pos), n);
            return;
        case PackKernel::Strided: {
            const std::size_t L = block_len_;
            const std::size_t T = tail_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t U = (T == L) ? B : B - 1;  // uniform-run blocks
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t j = static_cast<std::size_t>(rem / L);
            std::size_t r = static_cast<std::size_t>(rem % L);
            std::uint64_t vec = 0;
            while (n > 0) {
                const std::byte* src = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                       first_offset_ +
                                       static_cast<std::ptrdiff_t>(j) * stride_;
                if (r == 0 && j < U && n >= L) {
                    const std::size_t run = std::min<std::size_t>(U - j, n / L);
                    kernels_.gather(dst, src, stride_, L, run);
                    vec += run * L;
                    dst += run * L;
                    n -= run * L;
                    j += run;
                } else {
                    const std::size_t blen = (j == B - 1) ? T : L;
                    const std::size_t take = std::min(blen - r, n);
                    std::memcpy(dst, src + r, take);
                    dst += take;
                    n -= take;
                    r += take;
                    if (r < blen) break;  // ended mid-block
                    r = 0;
                    ++j;
                }
                if (j == B) {
                    j = 0;
                    ++q;
                }
            }
            if (stats && kernels_.vector) stats->dt_simd_pack_bytes += vec;
            return;
        }
        case PackKernel::BlockedStrided: {
            const std::size_t L = block_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t I = inner_blocks_;
            const std::size_t G = B / I;
            const std::uint64_t blk = pos / L;
            std::size_t r = static_cast<std::size_t>(pos % L);
            std::uint64_t q = blk / B;
            std::size_t g = static_cast<std::size_t>((blk % B) / I);
            std::size_t k = static_cast<std::size_t>((blk % B) % I);
            std::uint64_t vec = 0;
            while (n > 0) {
                const std::byte* src = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                       first_offset_ +
                                       static_cast<std::ptrdiff_t>(g) * outer_stride_ +
                                       static_cast<std::ptrdiff_t>(k) * stride_;
                if (r == 0 && n >= L) {
                    const std::size_t run = std::min<std::size_t>(I - k, n / L);
                    kernels_.gather(dst, src, stride_, L, run);
                    vec += run * L;
                    dst += run * L;
                    n -= run * L;
                    k += run;
                } else {
                    const std::size_t take = std::min(L - r, n);
                    std::memcpy(dst, src + r, take);
                    dst += take;
                    n -= take;
                    r += take;
                    if (r < L) break;
                    r = 0;
                    ++k;
                }
                if (k == I) {
                    k = 0;
                    if (++g == G) {
                        g = 0;
                        ++q;
                    }
                }
            }
            if (stats && kernels_.vector) stats->dt_simd_pack_bytes += vec;
            return;
        }
        case PackKernel::Irregular: {
            // Tight block-table walk: one binary search to enter, then a
            // straight-line loop of memcpys (with aperiodic block lengths
            // any fixed-size dispatch is a mispredicted branch per block —
            // measured slower than letting memcpy take the runtime length).
            // The TypeCursor stays the *reference* implementation
            // (pack.hpp); this is the compiled form of the same walk.
            const auto& blocks = flat.blocks();
            const auto& prefix = flat.prefix_bytes();
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t bi = static_cast<std::size_t>(
                std::upper_bound(prefix.begin(), prefix.end(), rem) - prefix.begin() - 1);
            const std::size_t r = static_cast<std::size_t>(rem - prefix[bi]);
            const std::byte* ibase = base + static_cast<std::ptrdiff_t>(q) * extent_;
            if (r != 0) {  // partial head block, peeled off the hot loop
                const FlatBlock& b = blocks[bi];
                const std::size_t take = std::min(b.length - r, n);
                std::memcpy(dst, ibase + b.offset + static_cast<std::ptrdiff_t>(r), take);
                dst += take;
                n -= take;
                if (r + take < b.length) return;
                if (++bi == blocks.size()) {
                    bi = 0;
                    ibase += extent_;
                }
            }
            while (n > 0) {
                for (; bi < blocks.size(); ++bi) {
                    const FlatBlock& b = blocks[bi];
                    if (n < b.length) {
                        std::memcpy(dst, ibase + b.offset, n);
                        return;
                    }
                    std::memcpy(dst, ibase + b.offset, b.length);
                    dst += b.length;
                    n -= b.length;
                }
                bi = 0;
                ibase += extent_;
            }
            return;
        }
    }
}

void PackPlan::unpack_range(const FlatType& flat, std::byte* base,
                            [[maybe_unused]] std::size_t count, std::uint64_t pos,
                            std::span<const std::byte> in, StatCounters* stats) const {
    std::size_t n = in.size();
    if (n == 0) return;
    NNCOMM_ASSERT(pos + n <= static_cast<std::uint64_t>(instance_size_) * count);
    if (stats) ++stats->dt_kernel_dispatch[static_cast<std::size_t>(kernel_)];
    const std::byte* src = in.data();

    switch (kernel_) {
        case PackKernel::Contiguous:
            std::memcpy(base + first_offset_ + static_cast<std::ptrdiff_t>(pos), src, n);
            return;
        case PackKernel::Strided: {
            const std::size_t L = block_len_;
            const std::size_t T = tail_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t U = (T == L) ? B : B - 1;
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t j = static_cast<std::size_t>(rem / L);
            std::size_t r = static_cast<std::size_t>(rem % L);
            std::uint64_t vec = 0;
            while (n > 0) {
                std::byte* dst = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                 first_offset_ + static_cast<std::ptrdiff_t>(j) * stride_;
                if (r == 0 && j < U && n >= L) {
                    const std::size_t run = std::min<std::size_t>(U - j, n / L);
                    kernels_.scatter(dst, src, stride_, L, run);
                    vec += run * L;
                    src += run * L;
                    n -= run * L;
                    j += run;
                } else {
                    const std::size_t blen = (j == B - 1) ? T : L;
                    const std::size_t take = std::min(blen - r, n);
                    std::memcpy(dst + r, src, take);
                    src += take;
                    n -= take;
                    r += take;
                    if (r < blen) break;
                    r = 0;
                    ++j;
                }
                if (j == B) {
                    j = 0;
                    ++q;
                }
            }
            if (stats && kernels_.vector_scatter) stats->dt_simd_unpack_bytes += vec;
            return;
        }
        case PackKernel::BlockedStrided: {
            const std::size_t L = block_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t I = inner_blocks_;
            const std::size_t G = B / I;
            const std::uint64_t blk = pos / L;
            std::size_t r = static_cast<std::size_t>(pos % L);
            std::uint64_t q = blk / B;
            std::size_t g = static_cast<std::size_t>((blk % B) / I);
            std::size_t k = static_cast<std::size_t>((blk % B) % I);
            std::uint64_t vec = 0;
            while (n > 0) {
                std::byte* dst = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                 first_offset_ +
                                 static_cast<std::ptrdiff_t>(g) * outer_stride_ +
                                 static_cast<std::ptrdiff_t>(k) * stride_;
                if (r == 0 && n >= L) {
                    const std::size_t run = std::min<std::size_t>(I - k, n / L);
                    kernels_.scatter(dst, src, stride_, L, run);
                    vec += run * L;
                    src += run * L;
                    n -= run * L;
                    k += run;
                } else {
                    const std::size_t take = std::min(L - r, n);
                    std::memcpy(dst + r, src, take);
                    src += take;
                    n -= take;
                    r += take;
                    if (r < L) break;
                    r = 0;
                    ++k;
                }
                if (k == I) {
                    k = 0;
                    if (++g == G) {
                        g = 0;
                        ++q;
                    }
                }
            }
            if (stats && kernels_.vector_scatter) stats->dt_simd_unpack_bytes += vec;
            return;
        }
        case PackKernel::Irregular: {
            const auto& blocks = flat.blocks();
            const auto& prefix = flat.prefix_bytes();
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t bi = static_cast<std::size_t>(
                std::upper_bound(prefix.begin(), prefix.end(), rem) - prefix.begin() - 1);
            const std::size_t r = static_cast<std::size_t>(rem - prefix[bi]);
            std::byte* ibase = base + static_cast<std::ptrdiff_t>(q) * extent_;
            if (r != 0) {
                const FlatBlock& b = blocks[bi];
                const std::size_t take = std::min(b.length - r, n);
                std::memcpy(ibase + b.offset + static_cast<std::ptrdiff_t>(r), src, take);
                src += take;
                n -= take;
                if (r + take < b.length) return;
                if (++bi == blocks.size()) {
                    bi = 0;
                    ibase += extent_;
                }
            }
            while (n > 0) {
                for (; bi < blocks.size(); ++bi) {
                    const FlatBlock& b = blocks[bi];
                    if (n < b.length) {
                        std::memcpy(ibase + b.offset, src, n);
                        return;
                    }
                    std::memcpy(ibase + b.offset, src, b.length);
                    src += b.length;
                    n -= b.length;
                }
                bi = 0;
                ibase += extent_;
            }
            return;
        }
    }
}

}  // namespace nncomm::dt
