#include "datatype/simd.hpp"

#include <cstring>
#include <atomic>
#include <cstdlib>

#include "core/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define NNCOMM_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#define NNCOMM_SIMD_NEON_IMPL 1
#include <arm_neon.h>
#endif

namespace nncomm::dt::simd {

namespace {

// ---------------------------------------------------------------------------
// scalar floor: fixed-size dispatched copy loops
//
// memcpy with a compile-time length compiles to plain moves, so each of
// these IS the loop a user hand-packs around a known element size. The
// fixed table covers 4/8/16/32/64 (float, double, 2-8 doubles per node)
// plus 12/24/48 (3-component nodes — the paper's transpose element is 3
// doubles = 24 bytes). This is the whole engine when the build or the
// environment turns SIMD off, and the remainder/tail path of every vector
// kernel below.

template <std::size_t N>
void gather_fixed(std::byte* dst, const std::byte* src, std::ptrdiff_t stride, std::size_t,
                  std::size_t nblocks) {
    for (std::size_t i = 0; i < nblocks; ++i) {
        std::memcpy(dst, src, N);
        dst += N;
        src += stride;
    }
}

template <std::size_t N>
void scatter_fixed(std::byte* dst, const std::byte* src, std::ptrdiff_t stride, std::size_t,
                   std::size_t nblocks) {
    for (std::size_t i = 0; i < nblocks; ++i) {
        std::memcpy(dst, src, N);
        dst += stride;
        src += N;
    }
}

void gather_generic(std::byte* dst, const std::byte* src, std::ptrdiff_t stride,
                    std::size_t len, std::size_t nblocks) {
    for (std::size_t i = 0; i < nblocks; ++i) {
        std::memcpy(dst, src, len);
        dst += len;
        src += stride;
    }
}

void scatter_generic(std::byte* dst, const std::byte* src, std::ptrdiff_t stride,
                     std::size_t len, std::size_t nblocks) {
    for (std::size_t i = 0; i < nblocks; ++i) {
        std::memcpy(dst, src, len);
        dst += stride;
        src += len;
    }
}

Kernels scalar_select(std::size_t len) {
    switch (len) {
        case 4: return {gather_fixed<4>, scatter_fixed<4>, false};
        case 8: return {gather_fixed<8>, scatter_fixed<8>, false};
        case 12: return {gather_fixed<12>, scatter_fixed<12>, false};
        case 16: return {gather_fixed<16>, scatter_fixed<16>, false};
        case 24: return {gather_fixed<24>, scatter_fixed<24>, false};
        case 32: return {gather_fixed<32>, scatter_fixed<32>, false};
        case 48: return {gather_fixed<48>, scatter_fixed<48>, false};
        case 64: return {gather_fixed<64>, scatter_fixed<64>, false};
        default: return {gather_generic, scatter_generic, false};
    }
}

#if defined(NNCOMM_SIMD_X86)

// ---------------------------------------------------------------------------
// x86: AVX2 / AVX-512 kernels (function-level target attributes, so the
// translation unit builds with the portable baseline and only these bodies
// carry vector encodings — runtime dispatch stays safe on any host).
//
// Exact-width loads/stores only: a kernel for len-byte blocks touches
// exactly len bytes per block on both sides.

inline std::int32_t ld32(const std::byte* p) {
    std::int32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline std::int64_t ld64(const std::byte* p) {
    std::int64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

// 4-byte blocks: compact 8 blocks into one 256-bit store.
__attribute__((target("avx2"))) void gather4_avx2(std::byte* dst, const std::byte* src,
                                                  std::ptrdiff_t stride, std::size_t,
                                                  std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const std::byte* s = src + static_cast<std::ptrdiff_t>(i) * stride;
        const __m256i v = _mm256_set_epi32(ld32(s + 7 * stride), ld32(s + 6 * stride),
                                           ld32(s + 5 * stride), ld32(s + 4 * stride),
                                           ld32(s + 3 * stride), ld32(s + 2 * stride),
                                           ld32(s + stride), ld32(s));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i * 4), v);
    }
    for (; i < n; ++i) {
        std::memcpy(dst + i * 4, src + static_cast<std::ptrdiff_t>(i) * stride, 4);
    }
}

// 8-byte blocks: compact 4 blocks into one 256-bit store.
__attribute__((target("avx2"))) void gather8_avx2(std::byte* dst, const std::byte* src,
                                                  std::ptrdiff_t stride, std::size_t,
                                                  std::size_t n) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const std::byte* s = src + static_cast<std::ptrdiff_t>(i) * stride;
        const __m256i v = _mm256_set_epi64x(ld64(s + 3 * stride), ld64(s + 2 * stride),
                                            ld64(s + stride), ld64(s));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i * 8), v);
    }
    for (; i < n; ++i) {
        std::memcpy(dst + i * 8, src + static_cast<std::ptrdiff_t>(i) * stride, 8);
    }
}

// 16/32/64-byte blocks: one-or-more full vector moves per block. The
// scatter direction is the same body with the walks swapped: the dense
// side advances by len, the strided side by stride.

__attribute__((target("avx2"))) void gather16_sse(std::byte* dst, const std::byte* src,
                                                  std::ptrdiff_t stride, std::size_t,
                                                  std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), v);
        dst += 16;
        src += stride;
    }
}

__attribute__((target("avx2"))) void scatter16_sse(std::byte* dst, const std::byte* src,
                                                   std::ptrdiff_t stride, std::size_t,
                                                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), v);
        dst += stride;
        src += 16;
    }
}

__attribute__((target("avx2"))) void gather24_avx2(std::byte* dst, const std::byte* src,
                                                   std::ptrdiff_t stride, std::size_t,
                                                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
        const std::int64_t t = ld64(src + 16);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), v);
        std::memcpy(dst + 16, &t, 8);
        dst += 24;
        src += stride;
    }
}

__attribute__((target("avx2"))) void gather32_avx2(std::byte* dst, const std::byte* src,
                                                   std::ptrdiff_t stride, std::size_t,
                                                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
        dst += 32;
        src += stride;
    }
}

__attribute__((target("avx2"))) void scatter32_avx2(std::byte* dst, const std::byte* src,
                                                    std::ptrdiff_t stride, std::size_t,
                                                    std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
        dst += stride;
        src += 32;
    }
}

__attribute__((target("avx2"))) void gather48_avx2(std::byte* dst, const std::byte* src,
                                                   std::ptrdiff_t stride, std::size_t,
                                                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), a);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32), b);
        dst += 48;
        src += stride;
    }
}

__attribute__((target("avx2"))) void scatter48_avx2(std::byte* dst, const std::byte* src,
                                                    std::ptrdiff_t stride, std::size_t,
                                                    std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), a);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32), b);
        dst += stride;
        src += 48;
    }
}

__attribute__((target("avx2"))) void gather64_avx2(std::byte* dst, const std::byte* src,
                                                   std::ptrdiff_t stride, std::size_t,
                                                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), a);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), b);
        dst += 64;
        src += stride;
    }
}

__attribute__((target("avx2"))) void scatter64_avx2(std::byte* dst, const std::byte* src,
                                                    std::ptrdiff_t stride, std::size_t,
                                                    std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), a);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), b);
        dst += stride;
        src += 64;
    }
}

// General constant-stride runs (any block length >= 16): full 32-byte
// chunks, then exact 16/8/4/2/1 tail pieces — never a byte outside the
// block.
__attribute__((target("avx2"))) inline void copy_exact_avx2(std::byte* d, const std::byte* s,
                                                            std::size_t len) {
    while (len >= 32) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d),
                            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s)));
        d += 32;
        s += 32;
        len -= 32;
    }
    if (len >= 16) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(d),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(s)));
        d += 16;
        s += 16;
        len -= 16;
    }
    if (len >= 8) {
        std::memcpy(d, s, 8);
        d += 8;
        s += 8;
        len -= 8;
    }
    if (len >= 4) {
        std::memcpy(d, s, 4);
        d += 4;
        s += 4;
        len -= 4;
    }
    if (len >= 2) {
        std::memcpy(d, s, 2);
        d += 2;
        s += 2;
        len -= 2;
    }
    if (len) std::memcpy(d, s, 1);
}

__attribute__((target("avx2"))) void gather_run_avx2(std::byte* dst, const std::byte* src,
                                                     std::ptrdiff_t stride, std::size_t len,
                                                     std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        copy_exact_avx2(dst, src, len);
        dst += len;
        src += stride;
    }
}

__attribute__((target("avx2"))) void scatter_run_avx2(std::byte* dst, const std::byte* src,
                                                      std::ptrdiff_t stride, std::size_t len,
                                                      std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        copy_exact_avx2(dst, src, len);
        dst += stride;
        src += len;
    }
}

// ---------------------------------------------------------------------------
// AVX-512: hardware gather/scatter for the 4/8-byte families (the stride
// families a hand loop cannot compact), full 512-bit moves for 64-byte
// blocks and long runs.

__attribute__((target("avx512f,avx512dq"))) void gather8_avx512(std::byte* dst,
                                                                const std::byte* src,
                                                                std::ptrdiff_t stride,
                                                                std::size_t, std::size_t n) {
    const __m512i vindex = _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                              _mm512_set1_epi64(stride));
    std::size_t i = 0;
    // The all-lanes masked gather with a zero source: GCC 12's unmasked form
    // reads an undefined source register (-Wmaybe-uninitialized).
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), 0xFF, vindex, src + static_cast<std::ptrdiff_t>(i) * stride,
            1);
        _mm512_storeu_si512(dst + i * 8, v);
    }
    for (; i < n; ++i) {
        std::memcpy(dst + i * 8, src + static_cast<std::ptrdiff_t>(i) * stride, 8);
    }
}

// 4-byte blocks: 16 per 512-bit store when the whole index window fits an
// i32 (guarded per call; the AVX2 compaction is the fallback).
__attribute__((target("avx512f"))) void gather4_avx512(std::byte* dst, const std::byte* src,
                                                       std::ptrdiff_t stride, std::size_t len,
                                                       std::size_t n) {
    if (stride > (INT32_MAX / 16) || stride < (INT32_MIN / 16)) {
        gather4_avx2(dst, src, stride, len, n);
        return;
    }
    const __m512i vindex = _mm512_mullo_epi32(
        _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
        _mm512_set1_epi32(static_cast<int>(stride)));
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i v = _mm512_mask_i32gather_epi32(
            _mm512_setzero_si512(), 0xFFFF, vindex,
            src + static_cast<std::ptrdiff_t>(i) * stride, 1);
        _mm512_storeu_si512(dst + i * 4, v);
    }
    for (; i < n; ++i) {
        std::memcpy(dst + i * 4, src + static_cast<std::ptrdiff_t>(i) * stride, 4);
    }
}

__attribute__((target("avx512f"))) void scatter4_avx512(std::byte* dst, const std::byte* src,
                                                        std::ptrdiff_t stride, std::size_t len,
                                                        std::size_t n) {
    if (stride > (INT32_MAX / 16) || stride < (INT32_MIN / 16)) {
        scatter_fixed<4>(dst, src, stride, len, n);
        return;
    }
    const __m512i vindex = _mm512_mullo_epi32(
        _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
        _mm512_set1_epi32(static_cast<int>(stride)));
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i v = _mm512_loadu_si512(src + i * 4);
        _mm512_i32scatter_epi32(dst + static_cast<std::ptrdiff_t>(i) * stride, vindex, v, 1);
    }
    for (; i < n; ++i) {
        std::memcpy(dst + static_cast<std::ptrdiff_t>(i) * stride, src + i * 4, 4);
    }
}

__attribute__((target("avx512f"))) void gather64_avx512(std::byte* dst, const std::byte* src,
                                                        std::ptrdiff_t stride, std::size_t,
                                                        std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        _mm512_storeu_si512(dst, _mm512_loadu_si512(src));
        dst += 64;
        src += stride;
    }
}

__attribute__((target("avx512f"))) void scatter64_avx512(std::byte* dst, const std::byte* src,
                                                         std::ptrdiff_t stride, std::size_t,
                                                         std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        _mm512_storeu_si512(dst, _mm512_loadu_si512(src));
        dst += stride;
        src += 64;
    }
}

__attribute__((target("avx512f"))) inline void copy_exact_avx512(std::byte* d,
                                                                 const std::byte* s,
                                                                 std::size_t len) {
    while (len >= 64) {
        _mm512_storeu_si512(d, _mm512_loadu_si512(s));
        d += 64;
        s += 64;
        len -= 64;
    }
    if (len) copy_exact_avx2(d, s, len);
}

__attribute__((target("avx512f"))) void gather_run_avx512(std::byte* dst, const std::byte* src,
                                                          std::ptrdiff_t stride,
                                                          std::size_t len, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        copy_exact_avx512(dst, src, len);
        dst += len;
        src += stride;
    }
}

__attribute__((target("avx512f"))) void scatter_run_avx512(std::byte* dst,
                                                           const std::byte* src,
                                                           std::ptrdiff_t stride,
                                                           std::size_t len, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        copy_exact_avx512(dst, src, len);
        dst += stride;
        src += len;
    }
}

// Scatter-side choices follow the guidelines bench (bench_pack_guidelines),
// not instruction width: a constant-length scalar store loop beats the
// 24-byte xmm pair and the sub-64-byte vector run scatter, so those
// lengths keep a vector gather but take the scalar scatter.
Kernels avx2_select(std::size_t len) {
    switch (len) {
        case 4: return {gather4_avx2, scatter_fixed<4>, true, false};
        case 8: return {gather8_avx2, scatter_fixed<8>, true, false};
        case 16: return {gather16_sse, scatter16_sse, true, true};
        case 24: return {gather24_avx2, scatter_fixed<24>, true, false};
        case 32: return {gather32_avx2, scatter32_avx2, true, true};
        case 48: return {gather48_avx2, scatter48_avx2, true, true};
        case 64: return {gather64_avx2, scatter64_avx2, true, true};
        default:
            // General lengths: the piecewise vector run only pays for
            // itself from 32 bytes up (gather) / 64 up (scatter); below
            // that the runtime-length memcpy loop wins.
            if (len >= 64) return {gather_run_avx2, scatter_run_avx2, true, true};
            if (len >= 32) return {gather_run_avx2, scatter_generic, true, false};
            return scalar_select(len);
    }
}

Kernels avx512_select(std::size_t len) {
    switch (len) {
        case 4: return {gather4_avx512, scatter4_avx512, true, true};
        // The 8-lane hardware scatter loses to eight scalar stores
        // (scatter is microcoded on every current core); the hardware
        // gather still wins, so the pair splits.
        case 8: return {gather8_avx512, scatter_fixed<8>, true, false};
        case 16: return {gather16_sse, scatter16_sse, true, true};
        case 24: return {gather24_avx2, scatter_fixed<24>, true, false};
        case 32: return {gather32_avx2, scatter32_avx2, true, true};
        case 48: return {gather48_avx2, scatter48_avx2, true, true};
        case 64: return {gather64_avx512, scatter64_avx512, true, true};
        default:
            if (len >= 64) return {gather_run_avx512, scatter_run_avx512, true, true};
            if (len >= 32) return {gather_run_avx2, scatter_generic, true, false};
            return scalar_select(len);
    }
}

#endif  // NNCOMM_SIMD_X86

#if defined(NNCOMM_SIMD_NEON_IMPL)

// ---------------------------------------------------------------------------
// aarch64 NEON: 128-bit q-register moves; 8-byte blocks compact two per
// store. All loads/stores are the unaligned u8 forms.

void gather8_neon(std::byte* dst, const std::byte* src, std::ptrdiff_t stride, std::size_t,
                  std::size_t n) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x8_t a =
            vld1_u8(reinterpret_cast<const std::uint8_t*>(src + static_cast<std::ptrdiff_t>(i) * stride));
        const uint8x8_t b = vld1_u8(
            reinterpret_cast<const std::uint8_t*>(src + static_cast<std::ptrdiff_t>(i + 1) * stride));
        vst1q_u8(reinterpret_cast<std::uint8_t*>(dst + i * 8), vcombine_u8(a, b));
    }
    for (; i < n; ++i) {
        std::memcpy(dst + i * 8, src + static_cast<std::ptrdiff_t>(i) * stride, 8);
    }
}

void gather16_neon(std::byte* dst, const std::byte* src, std::ptrdiff_t stride, std::size_t,
                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        vst1q_u8(reinterpret_cast<std::uint8_t*>(dst),
                 vld1q_u8(reinterpret_cast<const std::uint8_t*>(src)));
        dst += 16;
        src += stride;
    }
}

void scatter16_neon(std::byte* dst, const std::byte* src, std::ptrdiff_t stride, std::size_t,
                    std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        vst1q_u8(reinterpret_cast<std::uint8_t*>(dst),
                 vld1q_u8(reinterpret_cast<const std::uint8_t*>(src)));
        dst += stride;
        src += 16;
    }
}

inline void copy_exact_neon(std::byte* d, const std::byte* s, std::size_t len) {
    while (len >= 16) {
        vst1q_u8(reinterpret_cast<std::uint8_t*>(d),
                 vld1q_u8(reinterpret_cast<const std::uint8_t*>(s)));
        d += 16;
        s += 16;
        len -= 16;
    }
    if (len >= 8) {
        std::memcpy(d, s, 8);
        d += 8;
        s += 8;
        len -= 8;
    }
    if (len) std::memcpy(d, s, len);
}

void gather_run_neon(std::byte* dst, const std::byte* src, std::ptrdiff_t stride,
                     std::size_t len, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        copy_exact_neon(dst, src, len);
        dst += len;
        src += stride;
    }
}

void scatter_run_neon(std::byte* dst, const std::byte* src, std::ptrdiff_t stride,
                      std::size_t len, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        copy_exact_neon(dst, src, len);
        dst += stride;
        src += len;
    }
}

Kernels neon_select(std::size_t len) {
    switch (len) {
        case 8: return {gather8_neon, scatter_fixed<8>, true, false};
        case 16: return {gather16_neon, scatter16_neon, true, true};
        default:
            // Mirror the x86 thresholds: piecewise vector runs from 32
            // bytes (gather) / 64 bytes (scatter).
            if (len >= 64) return {gather_run_neon, scatter_run_neon, true, true};
            if (len >= 32) return {gather_run_neon, scatter_generic, true, false};
            return scalar_select(len);
    }
}

#endif  // NNCOMM_SIMD_NEON_IMPL

// ---------------------------------------------------------------------------
// detection and the environment cap

Level detect() {
#if defined(NNCOMM_SIMD_X86)
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")) {
        return Level::AVX512;
    }
    if (__builtin_cpu_supports("avx2")) return Level::AVX2;
    return Level::Scalar;
#elif defined(NNCOMM_SIMD_NEON_IMPL)
    return Level::NEON;  // baseline on aarch64
#else
    return Level::Scalar;
#endif
}

Level env_cap(Level detected) {
    const char* e = std::getenv("NNCOMM_SIMD");
    if (!e || !*e) return detected;
    Level want = detected;
    if (env_equals(e, "OFF") || env_equals(e, "0") || env_equals(e, "SCALAR")) {
        want = Level::Scalar;
    } else if (env_equals(e, "NEON")) {
        want = Level::NEON;
    } else if (env_equals(e, "AVX2")) {
        want = Level::AVX2;
    } else if (env_equals(e, "AVX512")) {
        want = Level::AVX512;
    } else {
        return detected;  // unrecognized: ignore
    }
    return static_cast<int>(want) < static_cast<int>(detected) ? want : detected;
}

std::atomic<int> g_forced{-1};

}  // namespace

Level detected_level() {
    static const Level l = detect();
    return l;
}

Level active_level() {
    const int f = g_forced.load(std::memory_order_relaxed);
    if (f >= 0) return static_cast<Level>(f);
    static const Level l = env_cap(detected_level());
    return l;
}

Level force_level_for_test(Level level) {
    Level eff = level;
    if (static_cast<int>(eff) > static_cast<int>(detected_level())) eff = detected_level();
    g_forced.store(static_cast<int>(eff), std::memory_order_relaxed);
    return eff;
}

Kernels select(std::size_t block_len) {
    switch (active_level()) {
#if defined(NNCOMM_SIMD_X86)
        case Level::AVX512: return avx512_select(block_len);
        case Level::AVX2: return avx2_select(block_len);
#endif
#if defined(NNCOMM_SIMD_NEON_IMPL)
        case Level::NEON: return neon_select(block_len);
#endif
        default: return scalar_select(block_len);
    }
}

}  // namespace nncomm::dt::simd
