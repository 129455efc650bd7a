// Shared helpers for the collective implementations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "datatype/pack.hpp"
#include "runtime/comm.hpp"

namespace nncomm::coll::detail {

/// Address range [lo, hi) that `count` instances of `type` at `base` touch.
inline std::pair<std::intptr_t, std::intptr_t> touched_range(const void* base,
                                                             std::size_t count,
                                                             const dt::Datatype& type) {
    const dt::FlatType& f = type.flat();
    const auto first = reinterpret_cast<std::intptr_t>(base);
    const auto last = first + static_cast<std::ptrdiff_t>(count - 1) * f.extent();
    return {std::min(first, last) + f.data_lb(), std::max(first, last) + f.data_ub()};
}

/// True when copy_typed has to stage through a packed buffer because
/// neither layout is one contiguous run. Otherwise it moves the bytes with
/// a single copy and no scratch, so persistent schedules give a self Copy a
/// staging slot only in this case.
inline bool copy_needs_staging(const dt::Datatype& stype, const dt::Datatype& rtype) {
    return !stype.flat().contiguous() && !rtype.flat().contiguous();
}

/// Datatype-converting local copy (the MPI "self send"). Sizes must agree.
/// When one side is a contiguous run, the other side's compiled plan
/// kernel packs straight into it or unpacks straight out of it: one copy,
/// no scratch (a DMDA's owned box lands in its ghosted array this way).
/// Src and dst may alias: the identical in-place case is a no-op, partially
/// overlapping contiguous ranges go through memmove, and overlapping
/// layouts that are not both contiguous stage through a pack buffer.
inline void copy_typed(const void* src, std::size_t scount, const dt::Datatype& stype,
                       void* dst, std::size_t rcount, const dt::Datatype& rtype) {
    const std::size_t bytes = scount * stype.size();
    NNCOMM_CHECK_MSG(bytes == rcount * rtype.size(), "typed copy: size mismatch");
    if (bytes == 0) return;
    const bool scontig = stype.flat().contiguous();
    const bool rcontig = rtype.flat().contiguous();
    if (scontig && rcontig) {
        if (src == dst) return;
        std::memmove(dst, src, bytes);
        return;
    }
    const auto [slo, shi] = touched_range(src, scount, stype);
    const auto [rlo, rhi] = touched_range(dst, rcount, rtype);
    const bool disjoint = shi <= rlo || rhi <= slo;
    if (scontig && disjoint) {
        dt::unpack_from(dst, rtype, rcount,
                        std::span<const std::byte>(static_cast<const std::byte*>(src), bytes));
        return;
    }
    if (rcontig && disjoint) {
        dt::pack_into(src, stype, scount,
                      std::span<std::byte>(static_cast<std::byte*>(dst), bytes));
        return;
    }
    auto packed = dt::pack_all(src, stype, scount);
    dt::unpack_from(dst, rtype, rcount, packed);
}

/// Builds an hindexed datatype addressing recvbuf blocks `first..first+n-1`
/// (indices taken modulo nblocks, enumerated oldest-first) of an
/// allgatherv result layout: block b = recvcounts[b] elements of `elem` at
/// element offset displs[b]. Used to send/receive several blocks of the
/// result buffer as one noncontiguous message.
inline dt::Datatype block_range_type(std::span<const std::size_t> recvcounts,
                                     std::span<const std::size_t> displs,
                                     const dt::Datatype& elem, int first, int n) {
    const int nblocks = static_cast<int>(recvcounts.size());
    std::vector<std::size_t> lens;
    std::vector<std::ptrdiff_t> offs;
    lens.reserve(static_cast<std::size_t>(n));
    offs.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        const int b = ((first + t) % nblocks + nblocks) % nblocks;
        lens.push_back(recvcounts[static_cast<std::size_t>(b)]);
        offs.push_back(static_cast<std::ptrdiff_t>(displs[static_cast<std::size_t>(b)]) *
                       elem.extent());
    }
    return dt::Datatype::hindexed(lens, offs, elem);
}

}  // namespace nncomm::coll::detail
