// MPI-style derived datatypes.
//
// A Datatype is an immutable description of a (possibly noncontiguous)
// memory layout, built from builtin types with the standard MPI
// constructors: contiguous, vector, hvector, indexed, hindexed,
// create_indexed_block, struct, create_subarray and create_resized.
//
// Every type is born flat: its constructor builds the type's stream of
// contiguous (offset, length) blocks (flatten.hpp), which is what the pack
// engines operate on, from its children's streams in the loop that reads
// its arguments. The node keeps that table, which also holds
//   size()   — number of bytes of actual data it describes,
//   extent() — the span of memory from lower bound to upper bound that one
//              instance occupies (used as the stride between consecutive
//              elements in count>1 sends),
// and no reference to its children.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace nncomm::dt {

class FlatType;  // flatten.hpp
class PackPlan;  // plan.hpp

namespace detail {
struct TypeNode;
}
struct DatatypeAccess;

/// Value-semantic handle to an immutable datatype node. Cheap to copy.
class Datatype {
public:
    Datatype() = default;  // null type; only valid after assignment

    // -- builtins ----------------------------------------------------------
    static Datatype builtin(std::size_t size);
    static Datatype byte();     ///< 1 byte
    static Datatype chars();    ///< 1 byte (MPI_CHAR)
    static Datatype int32();    ///< 4 bytes (MPI_INT)
    static Datatype int64();    ///< 8 bytes (MPI_LONG_LONG)
    static Datatype float32();  ///< 4 bytes (MPI_FLOAT)
    static Datatype float64();  ///< 8 bytes (MPI_DOUBLE)

    // -- constructors (mirroring MPI_Type_*) --------------------------------
    static Datatype contiguous(std::size_t count, const Datatype& oldtype);
    /// stride in *elements of oldtype* (MPI_Type_vector).
    static Datatype vector(std::size_t count, std::size_t blocklength, std::ptrdiff_t stride,
                           const Datatype& oldtype);
    /// stride in *bytes* (MPI_Type_create_hvector).
    static Datatype hvector(std::size_t count, std::size_t blocklength,
                            std::ptrdiff_t stride_bytes, const Datatype& oldtype);
    /// displacements in elements of oldtype (MPI_Type_indexed).
    static Datatype indexed(std::span<const std::size_t> blocklengths,
                            std::span<const std::ptrdiff_t> displacements,
                            const Datatype& oldtype);
    /// displacements in bytes (MPI_Type_create_hindexed).
    static Datatype hindexed(std::span<const std::size_t> blocklengths,
                             std::span<const std::ptrdiff_t> displacements_bytes,
                             const Datatype& oldtype);
    /// uniform blocklength, element displacements (MPI_Type_create_indexed_block).
    static Datatype indexed_block(std::size_t blocklength,
                                  std::span<const std::ptrdiff_t> displacements,
                                  const Datatype& oldtype);
    /// heterogeneous struct (MPI_Type_create_struct); displacements in bytes.
    static Datatype struct_type(std::span<const std::size_t> blocklengths,
                                std::span<const std::ptrdiff_t> displacements_bytes,
                                std::span<const Datatype> types);
    /// n-dimensional subarray (MPI_Type_create_subarray), row-major (C order).
    static Datatype subarray(std::span<const std::size_t> sizes,
                             std::span<const std::size_t> subsizes,
                             std::span<const std::size_t> starts, const Datatype& oldtype);
    /// override lower bound / extent (MPI_Type_create_resized); bytes.
    static Datatype resized(const Datatype& oldtype, std::ptrdiff_t lb, std::ptrdiff_t extent);

    // -- queries -------------------------------------------------------------
    bool valid() const { return node_ != nullptr; }
    /// Bytes of data described by one instance.
    std::size_t size() const;
    /// Memory span (ub - lb) of one instance; the stride for count>1.
    std::ptrdiff_t extent() const;
    /// Lower bound in bytes (normally 0; Resized can move it).
    std::ptrdiff_t lb() const;
    /// True when one instance is a single dense block at offset 0 with
    /// lb 0 and size == extent (FlatType::contiguous()).
    bool is_contiguous() const;
    /// Number of maximal contiguous blocks in one flattened instance.
    std::size_t block_count() const;

    /// Flattened block-stream form, built by the type's constructor.
    const FlatType& flat() const;

    /// Compiled pack plan (plan.hpp): kernel classification + specialized
    /// copy parameters. Compiled from flat() on the first call and kept on
    /// the node, so every later call, from any thread, returns that one
    /// plan.
    const PackPlan& plan() const;

    friend bool operator==(const Datatype& a, const Datatype& b) { return a.node_ == b.node_; }

private:
    friend struct DatatypeAccess;
    explicit Datatype(std::shared_ptr<const detail::TypeNode> node) : node_(std::move(node)) {}
    std::shared_ptr<const detail::TypeNode> node_;
};

}  // namespace nncomm::dt
