// Runtime-dispatched SIMD gather/scatter kernels for the dense stride
// families the pack plans compile to (plan.hpp).
//
// The DDT performance-guidelines literature (Träff et al., "MPI Datatype
// Performance Guidelines"; Eijkhout) sets the yardstick this module exists
// to meet: the datatype path must never lose to the loop a user would
// hand-write around memcpy. The compiled plans (plan.cpp) removed the
// interpretive overhead; this layer removes the per-block copy overhead by
// moving whole blocks — and, for 4/8-byte blocks, several blocks per
// instruction — through vector registers.
//
// Dispatch is resolved ONCE, not per call: the host's capability is probed
// at first use (cpuid on x86, unconditionally NEON on aarch64) and each
// PackPlan selects its kernel pair (gather + scatter) for its block length
// at compile time, so the hot path is a single indirect call with zero
// branching on CPU features. The selection can be capped or disabled with
// the NNCOMM_SIMD environment variable (OFF/SCALAR, AVX2, AVX512, NEON);
// OFF leaves the fixed-size scalar dispatch (4/8/12/16/24/32/48/64-byte
// blocks) as the only layer — still never slower than a hand-packed loop,
// since it IS the hand-packed loop.
//
// Every kernel moves `nblocks` blocks of `len` bytes between a dense
// stream and a constant-stride layout using exact-width loads and stores
// only: no kernel reads or writes a single byte outside the blocks it was
// asked to move, so the kernels are safe under ASan and on unpack paths
// where the gaps between blocks hold live user data.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nncomm::dt::simd {

/// Instruction-set level of the selected kernels, ordered by width so
/// levels can be capped (env var) by numeric comparison.
enum class Level : int {
    Scalar = 0,  ///< fixed-size dispatched scalar loops (the portable floor)
    NEON = 1,    ///< aarch64 Advanced SIMD, 128-bit
    AVX2 = 2,    ///< x86-64 AVX2, 256-bit
    AVX512 = 3,  ///< x86-64 AVX-512 F+BW+DQ+VL, 512-bit + gather/scatter
};

inline const char* level_name(Level l) {
    switch (l) {
        case Level::Scalar: return "scalar";
        case Level::NEON: return "neon";
        case Level::AVX2: return "avx2";
        case Level::AVX512: return "avx512";
    }
    return "?";
}

/// The level kernels are selected at: detected once from cpuid/HWCAP,
/// capped by NNCOMM_SIMD in the environment (OFF means Scalar).
Level active_level();

/// Test hook: force the level used by subsequent select() calls (pass the
/// detected level to restore). Plans compiled earlier keep their kernels;
/// tests build fresh types after forcing. Returns the level actually
/// installed (forcing above the detected capability caps at the detected
/// level, so a test can ask for AVX512 on any host safely).
Level force_level_for_test(Level level);
/// The capability ceiling the host supports (ignores the env cap).
Level detected_level();

/// Gather: dst is a dense stream, src walks the strided layout.
/// Scatter: dst walks the strided layout, src is a dense stream.
/// `len` is passed even to fixed-size kernels so all selections share one
/// signature and the plan stores a single pair of pointers.
using GatherFn = void (*)(std::byte* dst, const std::byte* src, std::ptrdiff_t stride,
                          std::size_t len, std::size_t nblocks);
using ScatterFn = void (*)(std::byte* dst, const std::byte* src, std::ptrdiff_t stride,
                           std::size_t len, std::size_t nblocks);

struct Kernels {
    GatherFn gather = nullptr;
    ScatterFn scatter = nullptr;
    /// True when the gather moves bytes through vector registers (feeds
    /// dt_simd_pack_bytes so benches can attest the vector path ran).
    bool vector = false;
    /// Same for the scatter / dt_simd_unpack_bytes. Selection picks the
    /// faster implementation per direction, and hardware scatters lose to
    /// a constant-length store loop at several block lengths, so a pair
    /// with a vector gather and a scalar scatter is common.
    bool vector_scatter = false;
};

/// Selects the fastest kernel pair for `block_len` at the active level
/// (widest is not always fastest — see Kernels::vector_scatter). Always
/// returns callable pointers (the scalar pair is the floor).
Kernels select(std::size_t block_len);

}  // namespace nncomm::dt::simd
