#include "datatype/datatype.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "datatype/flatten.hpp"
#include "datatype/plan.hpp"

namespace nncomm::dt {

namespace detail {

// A type is its flattened table, which also holds its MPI bounds, and the
// pack plan compiled from that table on the first plan() call.
struct TypeNode {
    explicit TypeNode(FlatType t) : flat(std::move(t)) {}

    FlatType flat;
    mutable std::once_flag plan_once;
    mutable std::optional<PackPlan> plan;
};

}  // namespace detail

using detail::TypeNode;

void FlatBuilder::too_fragmented() {
    NNCOMM_CHECK_MSG(false, "datatype too fragmented to flatten");
}

// ---------------------------------------------------------------------------
// accessors

struct DatatypeAccess {
    static const TypeNode& node(const Datatype& t) {
        NNCOMM_CHECK_MSG(t.valid(), "null Datatype");
        return *t.node_;
    }
    static Datatype wrap(FlatType t) { return Datatype(std::make_shared<TypeNode>(std::move(t))); }
};

namespace {

// The type whose table `b` holds, with MPI bounds [lb, ub).
Datatype finish(FlatBuilder&& b, std::ptrdiff_t lb, std::ptrdiff_t ub) {
    return DatatypeAccess::wrap(std::move(b).finish(ub - lb, lb));
}

// Appends, for each placement i < count, n(i) instances of the `child`
// table, the first at byte base(i) and the rest spaced by the child's
// extent. A dense child's instances form one run, emitted as one block.
template <typename N, typename Base>
void append_instances(FlatBuilder& b, const FlatType& child, std::size_t count, N n, Base base) {
    if (child.contiguous()) {
        const std::size_t size = child.size();
        b.append(count, [=](std::size_t i) { return FlatBlock{base(i), n(i) * size}; });
        return;
    }
    const std::vector<FlatBlock>& blocks = child.blocks();
    for (std::size_t i = 0; i < count; ++i) {
        std::ptrdiff_t at = base(i);
        for (std::size_t k = n(i); k > 0; --k, at += child.extent()) {
            b.append(blocks.size(), [&](std::size_t j) {
                return FlatBlock{at + blocks[j].offset, blocks[j].length};
            });
        }
    }
}

// The MPI bounds of a set of placements: the least start and greatest end
// of those holding at least one instance, [0, 0) when none does.
struct Bounds {
    std::ptrdiff_t lo = 0, hi = 0;
    bool any = false;

    void add(std::ptrdiff_t start, std::size_t n, const FlatType& child) {
        if (n == 0) return;
        const std::ptrdiff_t b0 = start + child.lb();
        const std::ptrdiff_t b1 = b0 + static_cast<std::ptrdiff_t>(n) * child.extent();
        lo = any ? std::min(lo, b0) : b0;
        hi = any ? std::max(hi, b1) : b1;
        any = true;
    }
};

}  // namespace

const FlatType& Datatype::flat() const { return DatatypeAccess::node(*this).flat; }
std::size_t Datatype::size() const { return flat().size(); }
std::ptrdiff_t Datatype::extent() const { return flat().extent(); }
std::ptrdiff_t Datatype::lb() const { return flat().lb(); }
bool Datatype::is_contiguous() const { return flat().contiguous(); }
std::size_t Datatype::block_count() const { return flat().block_count(); }

const PackPlan& Datatype::plan() const {
    const TypeNode& n = DatatypeAccess::node(*this);
    std::call_once(n.plan_once, [&] { n.plan.emplace(PackPlan::compile(n.flat)); });
    return *n.plan;
}

// ---------------------------------------------------------------------------
// constructors: each builds its table from its children's tables in the
// loop that reads its arguments.

Datatype Datatype::builtin(std::size_t size) {
    NNCOMM_CHECK_MSG(size > 0, "builtin type must have nonzero size");
    FlatBuilder b;
    b.add(0, size);
    return finish(std::move(b), 0, static_cast<std::ptrdiff_t>(size));
}

Datatype Datatype::byte() {
    static const Datatype t = builtin(1);
    return t;
}
Datatype Datatype::chars() {
    static const Datatype t = builtin(1);
    return t;
}
Datatype Datatype::int32() {
    static const Datatype t = builtin(4);
    return t;
}
Datatype Datatype::int64() {
    static const Datatype t = builtin(8);
    return t;
}
Datatype Datatype::float32() {
    static const Datatype t = builtin(4);
    return t;
}
Datatype Datatype::float64() {
    static const Datatype t = builtin(8);
    return t;
}

Datatype Datatype::contiguous(std::size_t count, const Datatype& oldtype) {
    const FlatType& elem = oldtype.flat();
    FlatBuilder b;
    append_instances(
        b, elem, 1, [=](std::size_t) { return count; },
        [](std::size_t) { return std::ptrdiff_t{0}; });
    Bounds bounds;
    bounds.add(0, count, elem);
    return finish(std::move(b), bounds.lo, bounds.hi);
}

Datatype Datatype::vector(std::size_t count, std::size_t blocklength, std::ptrdiff_t stride,
                          const Datatype& oldtype) {
    return hvector(count, blocklength, stride * oldtype.extent(), oldtype);
}

Datatype Datatype::hvector(std::size_t count, std::size_t blocklength,
                           std::ptrdiff_t stride_bytes, const Datatype& oldtype) {
    const FlatType& elem = oldtype.flat();
    FlatBuilder b;
    append_instances(
        b, elem, count, [=](std::size_t) { return blocklength; },
        [=](std::size_t i) { return static_cast<std::ptrdiff_t>(i) * stride_bytes; });
    // The placements start at a linear sequence, so its two ends bound it.
    Bounds bounds;
    if (count > 0) {
        bounds.add(0, blocklength, elem);
        bounds.add(static_cast<std::ptrdiff_t>(count - 1) * stride_bytes, blocklength, elem);
    }
    return finish(std::move(b), bounds.lo, bounds.hi);
}

namespace {
// Indexed, Hindexed and IndexedBlock: block i is `len(i)` elements at byte
// displacement `displ(i)`.
template <typename Len, typename Displ>
Datatype make_indexed(std::size_t count, Len len, Displ displ, const Datatype& oldtype) {
    const FlatType& elem = oldtype.flat();
    FlatBuilder b;
    b.reserve(count);
    append_instances(b, elem, count, len, displ);
    // A dense element's instances are all data, so the type's bounds are
    // its table's data bounds, with no second pass over the arguments.
    if (elem.contiguous()) {
        const std::ptrdiff_t lo = b.data_lb(), hi = b.data_ub();
        return finish(std::move(b), lo, hi);
    }
    Bounds bounds;
    for (std::size_t i = 0; i < count; ++i) bounds.add(displ(i), len(i), elem);
    return finish(std::move(b), bounds.lo, bounds.hi);
}
}  // namespace

Datatype Datatype::indexed(std::span<const std::size_t> blocklengths,
                           std::span<const std::ptrdiff_t> displacements,
                           const Datatype& oldtype) {
    NNCOMM_CHECK_MSG(blocklengths.size() == displacements.size(),
                     "indexed: blocklengths/displacements length mismatch");
    const std::ptrdiff_t ext = oldtype.extent();
    return make_indexed(
        blocklengths.size(), [=](std::size_t i) { return blocklengths[i]; },
        [=](std::size_t i) { return displacements[i] * ext; }, oldtype);
}

Datatype Datatype::hindexed(std::span<const std::size_t> blocklengths,
                            std::span<const std::ptrdiff_t> displacements_bytes,
                            const Datatype& oldtype) {
    NNCOMM_CHECK_MSG(blocklengths.size() == displacements_bytes.size(),
                     "indexed: blocklengths/displacements length mismatch");
    return make_indexed(
        blocklengths.size(), [=](std::size_t i) { return blocklengths[i]; },
        [=](std::size_t i) { return displacements_bytes[i]; }, oldtype);
}

Datatype Datatype::indexed_block(std::size_t blocklength,
                                 std::span<const std::ptrdiff_t> displacements,
                                 const Datatype& oldtype) {
    const std::ptrdiff_t ext = oldtype.extent();
    return make_indexed(
        displacements.size(), [=](std::size_t) { return blocklength; },
        [=](std::size_t i) { return displacements[i] * ext; }, oldtype);
}

Datatype Datatype::struct_type(std::span<const std::size_t> blocklengths,
                               std::span<const std::ptrdiff_t> displacements_bytes,
                               std::span<const Datatype> types) {
    NNCOMM_CHECK_MSG(blocklengths.size() == displacements_bytes.size() &&
                         blocklengths.size() == types.size(),
                     "struct_type: argument length mismatch");
    FlatBuilder b;
    Bounds bounds;
    for (std::size_t i = 0; i < types.size(); ++i) {
        const FlatType& field = types[i].flat();
        const std::size_t len = blocklengths[i];
        const std::ptrdiff_t displ = displacements_bytes[i];
        append_instances(
            b, field, 1, [=](std::size_t) { return len; }, [=](std::size_t) { return displ; });
        bounds.add(displ, len, field);
    }
    return finish(std::move(b), bounds.lo, bounds.hi);
}

Datatype Datatype::subarray(std::span<const std::size_t> sizes,
                            std::span<const std::size_t> subsizes,
                            std::span<const std::size_t> starts, const Datatype& oldtype) {
    const std::size_t nd = sizes.size();
    NNCOMM_CHECK_MSG(nd > 0 && subsizes.size() == nd && starts.size() == nd,
                     "subarray: dimension mismatch");
    for (std::size_t d = 0; d < nd; ++d) {
        NNCOMM_CHECK_MSG(subsizes[d] >= 1 && starts[d] + subsizes[d] <= sizes[d],
                         "subarray: region out of bounds");
    }
    // Row-major (C order): dimension nd-1 is fastest varying, so each row
    // of the region is subsizes[nd-1] consecutive elements. The rows are
    // emitted in C order over the outer dimensions, and one instance spans
    // the full array.
    const FlatType& elem = oldtype.flat();
    std::vector<std::ptrdiff_t> step(nd);  // bytes per index in dimension d
    std::ptrdiff_t full_extent = elem.extent();
    std::size_t rows = 1;
    for (std::size_t d = nd; d-- > 0;) {
        step[d] = full_extent;
        full_extent *= static_cast<std::ptrdiff_t>(sizes[d]);
        if (d + 1 < nd) rows *= subsizes[d];
    }
    FlatBuilder b;
    append_instances(
        b, elem, rows, [&](std::size_t) { return subsizes[nd - 1]; },
        [&](std::size_t row) {
            std::ptrdiff_t at = static_cast<std::ptrdiff_t>(starts[nd - 1]) * step[nd - 1];
            for (std::size_t d = nd - 1; d-- > 0; row /= subsizes[d]) {
                at += static_cast<std::ptrdiff_t>(starts[d] + row % subsizes[d]) * step[d];
            }
            return at;
        });
    return finish(std::move(b), 0, full_extent);
}

Datatype Datatype::resized(const Datatype& oldtype, std::ptrdiff_t lb, std::ptrdiff_t extent) {
    FlatBuilder b;
    append_instances(
        b, oldtype.flat(), 1, [](std::size_t) { return std::size_t{1}; },
        [](std::size_t) { return std::ptrdiff_t{0}; });
    return finish(std::move(b), lb, lb + extent);
}

}  // namespace nncomm::dt
