// Reference pack/unpack between user buffers (described by datatypes) and
// contiguous byte streams.
//
// pack_bytes/unpack_bytes are straightforward cursor-driven copies with no
// look-ahead or density decision; the test suite uses them as the ground
// truth the engines AND the compiled plan kernels are validated against —
// they deliberately never dispatch through a PackPlan.
//
// The whole-message entry points pack_into/pack_all/unpack_from (used by the
// collectives' typed self-copies and the runtime's receive side) dispatch
// through the type's compiled plan unconditionally — every kernel class,
// including Irregular, is plan-driven (plan.hpp); only the cursor walks
// here stay plan-free so tests have an independent reference.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "datatype/cursor.hpp"
#include "datatype/plan.hpp"

namespace nncomm::dt {

/// Copies the next `out.size()` packed bytes of the layout starting at
/// `base` into `out`, advancing `cur`. Returns bytes actually produced
/// (less than out.size() only when the cursor hits the end).
inline std::size_t pack_bytes(const std::byte* base, TypeCursor& cur, std::span<std::byte> out) {
    std::size_t produced = 0;
    while (produced < out.size() && !cur.at_end()) {
        const std::size_t rem = cur.current_block_remaining();
        const std::size_t want = out.size() - produced;
        const std::size_t n = rem < want ? rem : want;
        std::memcpy(out.data() + produced, base + cur.current_offset(), n);
        cur.advance(n);
        produced += n;
    }
    return produced;
}

/// Scatters `in` into the layout starting at `base`, advancing `cur`.
/// Returns bytes consumed (< in.size() only when the cursor hits the end).
inline std::size_t unpack_bytes(std::byte* base, TypeCursor& cur, std::span<const std::byte> in) {
    std::size_t consumed = 0;
    while (consumed < in.size() && !cur.at_end()) {
        const std::size_t rem = cur.current_block_remaining();
        const std::size_t want = in.size() - consumed;
        const std::size_t n = rem < want ? rem : want;
        std::memcpy(base + cur.current_offset(), in.data() + consumed, n);
        cur.advance(n);
        consumed += n;
    }
    return consumed;
}

/// Packs `count` instances of `type` at `base` into caller-owned storage
/// (`out.size()` must be the full packed size), dispatching through the
/// compiled plan kernel when one applies. Persistent communication plans
/// use this to fill their reusable pack buffers without allocating.
inline void pack_into(const void* base, const Datatype& type, std::size_t count,
                      std::span<std::byte> out, StatCounters* stats = nullptr) {
    NNCOMM_CHECK_MSG(out.size() == type.size() * count, "pack_into: size mismatch");
    type.plan().pack(type.flat(), static_cast<const std::byte*>(base), count, out, stats);
}

/// Unpacks a full packed stream into `count` instances of `type` at `base`,
/// dispatching through the compiled plan kernel.
inline void unpack_from(void* base, const Datatype& type, std::size_t count,
                        std::span<const std::byte> in, StatCounters* stats = nullptr) {
    NNCOMM_CHECK_MSG(in.size() == type.size() * count, "unpack_from: size mismatch");
    type.plan().unpack(type.flat(), static_cast<std::byte*>(base), count, in, stats);
}

/// Packs `count` instances of `type` at `base` into a fresh vector.
inline std::vector<std::byte> pack_all(const void* base, const Datatype& type,
                                       std::size_t count) {
    std::vector<std::byte> out(type.size() * count);
    pack_into(base, type, count, std::span<std::byte>(out));
    return out;
}

}  // namespace nncomm::dt
