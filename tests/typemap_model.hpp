// Test oracle for flattened datatypes that shares no code with the
// library's flattening: a type's MPI typemap, modelled element by element.
//
// Each constructor below mirrors a Datatype constructor. It lists every
// builtin element of one instance as an (offset, bytes) entry in typemap
// order, and derives the MPI lower and upper bound from its children's.
// blocks() merges entries that start where the previous one ends, which is
// the table Datatype::flat() must hold for the same arguments.
//
// random_type() builds a random type tree over every constructor together
// with its model, for the randomized flattening and packing sweeps.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "datatype/datatype.hpp"
#include "datatype/flatten.hpp"

namespace nncomm::test {

struct Typemap {
    std::vector<dt::FlatBlock> elems;  // one entry per builtin element
    std::ptrdiff_t lb = 0;
    std::ptrdiff_t ub = 0;

    std::ptrdiff_t extent() const { return ub - lb; }

    std::size_t size() const {
        std::size_t n = 0;
        for (const dt::FlatBlock& e : elems) n += e.length;
        return n;
    }

    /// One past the highest byte any element touches (0 when none).
    std::ptrdiff_t data_ub() const {
        std::ptrdiff_t hi = 0;
        for (const dt::FlatBlock& e : elems) {
            hi = std::max(hi, e.offset + static_cast<std::ptrdiff_t>(e.length));
        }
        return hi;
    }

    /// The typemap's entries with each entry that starts where its
    /// predecessor ends folded into it.
    std::vector<dt::FlatBlock> blocks() const {
        std::vector<dt::FlatBlock> out;
        for (const dt::FlatBlock& e : elems) {
            if (!out.empty() &&
                out.back().offset + static_cast<std::ptrdiff_t>(out.back().length) == e.offset) {
                out.back().length += e.length;
            } else {
                out.push_back(e);
            }
        }
        return out;
    }

    static Typemap builtin(std::size_t bytes) {
        Typemap t;
        t.elems.push_back({0, bytes});
        t.ub = static_cast<std::ptrdiff_t>(bytes);
        return t;
    }

    static Typemap contiguous(std::size_t count, const Typemap& old) {
        Typemap t;
        t.place(0, count, old);
        return t;
    }

    static Typemap hvector(std::size_t count, std::size_t blocklength, std::ptrdiff_t stride,
                           const Typemap& old) {
        Typemap t;
        for (std::size_t i = 0; i < count; ++i) {
            t.place(static_cast<std::ptrdiff_t>(i) * stride, blocklength, old);
        }
        return t;
    }

    static Typemap vector(std::size_t count, std::size_t blocklength, std::ptrdiff_t stride,
                          const Typemap& old) {
        return hvector(count, blocklength, stride * old.extent(), old);
    }

    static Typemap hindexed(std::span<const std::size_t> lens,
                            std::span<const std::ptrdiff_t> displs, const Typemap& old) {
        Typemap t;
        for (std::size_t i = 0; i < lens.size(); ++i) t.place(displs[i], lens[i], old);
        return t;
    }

    static Typemap indexed(std::span<const std::size_t> lens,
                           std::span<const std::ptrdiff_t> displs, const Typemap& old) {
        std::vector<std::ptrdiff_t> bytes(displs.begin(), displs.end());
        for (std::ptrdiff_t& d : bytes) d *= old.extent();
        return hindexed(lens, bytes, old);
    }

    static Typemap indexed_block(std::size_t blocklength, std::span<const std::ptrdiff_t> displs,
                                 const Typemap& old) {
        const std::vector<std::size_t> lens(displs.size(), blocklength);
        return indexed(lens, displs, old);
    }

    static Typemap struct_type(std::span<const std::size_t> lens,
                               std::span<const std::ptrdiff_t> displs,
                               std::span<const Typemap> types) {
        Typemap t;
        for (std::size_t i = 0; i < lens.size(); ++i) t.place(displs[i], lens[i], types[i]);
        return t;
    }

    /// Every element of the region in C order, each at its index's byte
    /// offset in the full array, which one instance spans.
    static Typemap subarray(std::span<const std::size_t> sizes,
                            std::span<const std::size_t> subsizes,
                            std::span<const std::size_t> starts, const Typemap& old) {
        std::size_t count = 1;
        for (const std::size_t n : subsizes) count *= n;
        Typemap t;
        for (std::size_t e = 0; e < count; ++e) {
            std::ptrdiff_t at = 0, step = old.extent();
            std::size_t rest = e;
            for (std::size_t d = sizes.size(); d-- > 0;) {
                at += static_cast<std::ptrdiff_t>(starts[d] + rest % subsizes[d]) * step;
                rest /= subsizes[d];
                step *= static_cast<std::ptrdiff_t>(sizes[d]);
            }
            t.place(at, 1, old);
        }
        std::ptrdiff_t full = old.extent();
        for (const std::size_t n : sizes) full *= static_cast<std::ptrdiff_t>(n);
        return resized(t, 0, full);
    }

    static Typemap resized(const Typemap& old, std::ptrdiff_t lb, std::ptrdiff_t extent) {
        Typemap t = old;
        t.lb = lb;
        t.ub = lb + extent;
        return t;
    }

private:
    // Appends n instances of `old`, the first at `base` and the rest spaced
    // by its extent, and widens the bounds to cover them.
    void place(std::ptrdiff_t base, std::size_t n, const Typemap& old) {
        if (n == 0) return;
        for (std::size_t k = 0; k < n; ++k) {
            const std::ptrdiff_t at = base + static_cast<std::ptrdiff_t>(k) * old.extent();
            for (const dt::FlatBlock& e : old.elems) elems.push_back({at + e.offset, e.length});
        }
        const std::ptrdiff_t lo = base + old.lb;
        const std::ptrdiff_t hi = lo + static_cast<std::ptrdiff_t>(n) * old.extent();
        lb = placed_ ? std::min(lb, lo) : lo;
        ub = placed_ ? std::max(ub, hi) : hi;
        placed_ = true;
    }

    bool placed_ = false;
};

/// (offset, length) pairs, which gtest compares and prints.
using BlockList = std::vector<std::pair<std::ptrdiff_t, std::size_t>>;

inline BlockList block_list(const std::vector<dt::FlatBlock>& blocks) {
    BlockList out;
    for (const dt::FlatBlock& b : blocks) out.emplace_back(b.offset, b.length);
    return out;
}

/// A datatype and its typemap model, built from the same arguments.
struct ModelledType {
    dt::Datatype type;
    Typemap model;
};

// Puts the (len, displ) pairs in random order, so displacements fall as
// well as rise.
inline void shuffle_blocks(Rng& rng, std::vector<std::size_t>& lens,
                           std::vector<std::ptrdiff_t>& displs) {
    for (std::size_t i = lens.size(); i > 1; --i) {
        const std::size_t j = rng.uniform_u64(0, i - 1);
        std::swap(lens[i - 1], lens[j]);
        std::swap(displs[i - 1], displs[j]);
    }
}

/// A random type tree of the given depth over every constructor, with its
/// model. Every byte offset is nonnegative.
inline ModelledType random_type(Rng& rng, int depth) {
    using dt::Datatype;
    if (depth == 0) {
        switch (rng.uniform_u64(0, 3)) {
            case 0: return {Datatype::float64(), Typemap::builtin(8)};
            case 1: return {Datatype::int32(), Typemap::builtin(4)};
            case 2: return {Datatype::float32(), Typemap::builtin(4)};
            default: return {Datatype::byte(), Typemap::builtin(1)};
        }
    }
    const ModelledType c = random_type(rng, depth - 1);
    const std::ptrdiff_t ext = c.model.extent();
    switch (rng.uniform_u64(0, 9)) {
        case 0: {
            const std::size_t count = rng.uniform_u64(1, 4);
            return {Datatype::contiguous(count, c.type), Typemap::contiguous(count, c.model)};
        }
        case 1: {
            const std::size_t count = rng.uniform_u64(1, 4);
            const std::size_t bl = rng.uniform_u64(1, 3);
            const auto stride = static_cast<std::ptrdiff_t>(bl + rng.uniform_u64(0, 3));
            return {Datatype::vector(count, bl, stride, c.type),
                    Typemap::vector(count, bl, stride, c.model)};
        }
        case 2: {
            const std::size_t count = rng.uniform_u64(1, 3);
            const std::size_t bl = rng.uniform_u64(1, 2);
            // Byte stride rounded up past the block span to avoid overlap.
            const std::ptrdiff_t stride = static_cast<std::ptrdiff_t>(bl) * ext +
                                          static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 13));
            return {Datatype::hvector(count, bl, stride, c.type),
                    Typemap::hvector(count, bl, stride, c.model)};
        }
        case 3:
        case 4: {
            // Indexed (element displacements) or hindexed (bytes), blocks
            // laid out with gaps and then listed in random order.
            const bool bytes = rng.bernoulli(0.5);
            const std::size_t nb = rng.uniform_u64(1, 3);
            std::vector<std::size_t> lens(nb);
            std::vector<std::ptrdiff_t> displs(nb);
            std::ptrdiff_t at = 0;
            for (std::size_t i = 0; i < nb; ++i) {
                lens[i] = rng.uniform_u64(1, 2);
                displs[i] = at;
                const auto span = static_cast<std::ptrdiff_t>(lens[i]);
                at += bytes ? span * ext + static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 13))
                            : span + static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 2));
            }
            shuffle_blocks(rng, lens, displs);
            if (bytes) {
                return {Datatype::hindexed(lens, displs, c.type),
                        Typemap::hindexed(lens, displs, c.model)};
            }
            return {Datatype::indexed(lens, displs, c.type),
                    Typemap::indexed(lens, displs, c.model)};
        }
        case 5: {
            const std::size_t nb = rng.uniform_u64(1, 3);
            const std::size_t bl = rng.uniform_u64(1, 2);
            std::vector<std::size_t> lens(nb, bl);
            std::vector<std::ptrdiff_t> displs(nb);
            for (std::size_t i = 0; i < nb; ++i) {
                displs[i] = static_cast<std::ptrdiff_t>(i * (bl + rng.uniform_u64(0, 2)));
            }
            shuffle_blocks(rng, lens, displs);
            return {Datatype::indexed_block(bl, displs, c.type),
                    Typemap::indexed_block(bl, displs, c.model)};
        }
        case 6: {
            // Struct over two independently random children, each placed
            // with its lower bound at the field's start, the second past
            // the first, listed in either order.
            const ModelledType o = random_type(rng, depth - 1);
            std::vector<std::size_t> lens{rng.uniform_u64(1, 2), rng.uniform_u64(1, 2)};
            const std::ptrdiff_t end0 = static_cast<std::ptrdiff_t>(lens[0]) * ext;
            std::vector<std::ptrdiff_t> displs{
                -c.model.lb,
                end0 - o.model.lb + static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 9))};
            std::vector<Datatype> types{c.type, o.type};
            std::vector<Typemap> models{c.model, o.model};
            if (rng.bernoulli(0.5)) {
                std::swap(lens[0], lens[1]);
                std::swap(displs[0], displs[1]);
                std::swap(types[0], types[1]);
                std::swap(models[0], models[1]);
            }
            return {Datatype::struct_type(lens, displs, types),
                    Typemap::struct_type(lens, displs, models)};
        }
        case 7: {
            // Displaced by a byte shift, then resized: either back to lb 0,
            // so the data sits past the lower bound, or at its new lb.
            const std::vector<std::size_t> one{1};
            const std::vector<std::ptrdiff_t> shift{
                static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 16))};
            const Datatype displaced = Datatype::hindexed(one, shift, c.type);
            const Typemap moved = Typemap::hindexed(one, shift, c.model);
            const std::ptrdiff_t lb = rng.bernoulli(0.5) ? 0 : moved.lb;
            const std::ptrdiff_t extent = ext + static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 11));
            return {Datatype::resized(displaced, lb, extent), Typemap::resized(moved, lb, extent)};
        }
        case 8: {
            // A 1-D or 2-D region of an array of up to 3 x 3 elements.
            const std::size_t nd = rng.uniform_u64(1, 2);
            std::vector<std::size_t> sizes(nd), subsizes(nd), starts(nd);
            for (std::size_t d = 0; d < nd; ++d) {
                sizes[d] = rng.uniform_u64(1, 3);
                subsizes[d] = rng.uniform_u64(1, sizes[d]);
                starts[d] = rng.uniform_u64(0, sizes[d] - subsizes[d]);
            }
            return {Datatype::subarray(sizes, subsizes, starts, c.type),
                    Typemap::subarray(sizes, subsizes, starts, c.model)};
        }
        default: {
            const std::ptrdiff_t extent = ext + static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 11));
            return {Datatype::resized(c.type, c.model.lb, extent),
                    Typemap::resized(c.model, c.model.lb, extent)};
        }
    }
}

}  // namespace nncomm::test
