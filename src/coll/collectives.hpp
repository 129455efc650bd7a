// Collective communication operations over the threaded runtime.
//
// The two operations the paper redesigns for nonuniform communication
// volumes are here with selectable algorithms:
//
//   allgatherv — Ring (MPICH2's large-message choice; sequentializes one
//     outlier message, Fig. 8), RecursiveDoubling (power-of-two ranks,
//     Fig. 10), Dissemination (any rank count, Fig. 11), and Auto, which
//     applies the paper's Eq. 1 outlier analysis over the communication-
//     volume set (Floyd–Rivest k-select) and picks a binomial-pattern
//     algorithm when the set is nonuniform.
//
//   alltoallw — RoundRobin (the MPICH2 baseline: a blocking pairwise
//     exchange with every rank, including zero-byte messages, adding a
//     synchronization step per peer), Binned (the paper's §4.2.2 design:
//     zero-volume peers are exempted entirely, small-message bins are
//     packed/sent before large ones), and Auto (Binned).
//
// The remaining operations (bcast, reduce, allreduce, gather(v),
// scatter(v), allgather, alltoall) complete the substrate the PETSc layer
// needs.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/outlier.hpp"
#include "runtime/comm.hpp"

namespace nncomm::coll {

enum class AllgathervAlgo {
    Auto,               ///< outlier-aware selection (the paper's design)
    Ring,               ///< MPICH2 large-message baseline
    RecursiveDoubling,  ///< power-of-two ranks only
    Dissemination,      ///< Bruck-style, any rank count
};

enum class AlltoallwAlgo {
    Auto,        ///< Binned
    RoundRobin,  ///< MPICH2 baseline incl. zero-size synchronization
    Binned,      ///< zero/small/large bins, small processed first
};

/// Tunables shared by the nonuniform-aware collectives.
struct CollConfig {
    AllgathervAlgo allgatherv_algo = AllgathervAlgo::Auto;
    AlltoallwAlgo alltoallw_algo = AlltoallwAlgo::Auto;
    /// Eq. 1 parameters for Auto allgatherv.
    OutlierConfig outlier{};
    /// Uniform-volume heuristic (mirrors MPICH2): total payload at or above
    /// this uses Ring, below it RecursiveDoubling/Dissemination.
    std::size_t long_msg_total = 512 * 1024;
    /// Alltoallw Binned: send volumes strictly below this are "small".
    std::size_t small_msg_threshold = 4 * 1024;
    /// Persistent-plan transport (AlltoallwPlan / VecScatter). Auto lowers
    /// onto one-sided RMA windows whenever rt::rma_selection_enabled();
    /// Rma forces windows (degrading to two-sided under NNCOMM_RMA=OFF);
    /// Eager/Rendezvous force the two-sided schedule graph. The choice must
    /// be uniform across ranks — it is a pure function of this config and
    /// the env gate, never of local traffic.
    rt::Protocol persistent_protocol = rt::Protocol::Auto;
};

// ---------------------------------------------------------------------------
// allgatherv

/// Every rank contributes `sendcount` elements of `sendtype`; rank i's
/// contribution lands at element offset `displs[i]` (in units of recvtype
/// extent) of every rank's `recvbuf`; `recvcounts[i]` gives its length in
/// recvtype elements. All ranks must pass identical recvcounts/displs.
void allgatherv(rt::Comm& comm, const void* sendbuf, std::size_t sendcount,
                const dt::Datatype& sendtype, void* recvbuf,
                std::span<const std::size_t> recvcounts, std::span<const std::size_t> displs,
                const dt::Datatype& recvtype, const CollConfig& config = {});

/// Uniform-count variant.
void allgather(rt::Comm& comm, const void* sendbuf, std::size_t sendcount,
               const dt::Datatype& sendtype, void* recvbuf, std::size_t recvcount,
               const dt::Datatype& recvtype, const CollConfig& config = {});

// ---------------------------------------------------------------------------
// alltoallw

/// Fully general all-to-all: rank r sends `sendcounts[i]` instances of
/// `sendtypes[i]` starting at byte `sdispls[i]` of sendbuf to rank i, and
/// receives `recvcounts[i]` instances of `recvtypes[i]` into byte
/// `rdispls[i]` of recvbuf. Zero counts mean no transfer (the baseline
/// still synchronizes on them; Binned exempts them).
void alltoallw(rt::Comm& comm, const void* sendbuf, std::span<const std::size_t> sendcounts,
               std::span<const std::ptrdiff_t> sdispls, std::span<const dt::Datatype> sendtypes,
               void* recvbuf, std::span<const std::size_t> recvcounts,
               std::span<const std::ptrdiff_t> rdispls, std::span<const dt::Datatype> recvtypes,
               const CollConfig& config = {});

/// Uniform all-to-all of contiguous blocks (`count` elements of `type` per
/// peer in rank order).
void alltoall(rt::Comm& comm, const void* sendbuf, std::size_t count, const dt::Datatype& type,
              void* recvbuf, const CollConfig& config = {});

// ---------------------------------------------------------------------------
// rooted collectives and reductions

/// Binomial-tree broadcast of `count` instances of `type`.
void bcast(rt::Comm& comm, void* buf, std::size_t count, const dt::Datatype& type, int root);

/// Rank i's `sendcount` elements land at recvbuf + displs[i] * extent on
/// the root. recvcounts/displs may be empty on non-root ranks.
void gatherv(rt::Comm& comm, const void* sendbuf, std::size_t sendcount,
             const dt::Datatype& sendtype, void* recvbuf,
             std::span<const std::size_t> recvcounts, std::span<const std::size_t> displs,
             const dt::Datatype& recvtype, int root);

void gather(rt::Comm& comm, const void* sendbuf, std::size_t sendcount,
            const dt::Datatype& sendtype, void* recvbuf, std::size_t recvcount,
            const dt::Datatype& recvtype, int root);

/// Root scatters sendcounts[i] elements from sendbuf + displs[i] * extent
/// to rank i.
void scatterv(rt::Comm& comm, const void* sendbuf, std::span<const std::size_t> sendcounts,
              std::span<const std::size_t> displs, const dt::Datatype& sendtype, void* recvbuf,
              std::size_t recvcount, const dt::Datatype& recvtype, int root);

enum class ReduceOp { Sum, Max, Min };

namespace detail {
template <typename T>
void apply_op(ReduceOp op, T* acc, const T* in, std::size_t n) {
    switch (op) {
        case ReduceOp::Sum:
            for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
            break;
        case ReduceOp::Max:
            for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] < in[i] ? in[i] : acc[i];
            break;
        case ReduceOp::Min:
            for (std::size_t i = 0; i < n; ++i) acc[i] = in[i] < acc[i] ? in[i] : acc[i];
            break;
    }
}
}  // namespace detail

/// Binomial-tree reduction of `n` values to the root's buffer (in place on
/// every rank; non-root buffers are used as scratch and keep their local
/// contribution semantics undefined afterwards on non-roots).
template <typename T>
void reduce(rt::Comm& comm, T* data, std::size_t n, ReduceOp op, int root) {
    static_assert(std::is_arithmetic_v<T>);
    const int tag = rt::epoch_tag(rt::kInternalTagBase + 1, comm.next_collective_epoch());
    const int size = comm.size();
    // Rotate ranks so the tree is rooted at `root`.
    const int vrank = (comm.rank() - root + size) % size;
    std::vector<T> incoming(n);
    int mask = 1;
    while (mask < size) {
        if ((vrank & mask) != 0) {
            const int dst = ((vrank & ~mask) + root) % size;
            comm.send_i(data, n * sizeof(T), dt::Datatype::byte(), dst, tag);
            return;  // this rank's subtree is folded in; done
        }
        const int vsrc = vrank | mask;
        if (vsrc < size) {
            const int src = (vsrc + root) % size;
            comm.recv_i(incoming.data(), n * sizeof(T), dt::Datatype::byte(), src, tag);
            detail::apply_op(op, data, incoming.data(), n);
        }
        mask <<= 1;
    }
}

/// Reduce-to-zero followed by broadcast; result identical on all ranks.
template <typename T>
void allreduce(rt::Comm& comm, T* data, std::size_t n, ReduceOp op) {
    reduce(comm, data, n, op, 0);
    bcast(comm, data, n * sizeof(T), dt::Datatype::byte(), 0);
}

template <typename T>
T allreduce_one(rt::Comm& comm, T value, ReduceOp op) {
    allreduce(comm, &value, 1, op);
    return value;
}

/// Inclusive prefix reduction (MPI_Scan): on return, rank r holds
/// op(data_0, ..., data_r). Hillis–Steele recursive doubling, log2 N
/// rounds.
template <typename T>
void scan(rt::Comm& comm, T* data, std::size_t n, ReduceOp op) {
    static_assert(std::is_arithmetic_v<T>);
    const int tag_base = rt::epoch_tag(rt::kInternalTagBase + 0x400, comm.next_collective_epoch());
    const int size = comm.size();
    const int rank = comm.rank();
    std::vector<T> incoming(n);
    int round = 0;
    for (int dist = 1; dist < size; dist <<= 1, ++round) {
        // Send the current running value before folding this round's input.
        if (rank + dist < size) {
            comm.send_i(data, n * sizeof(T), dt::Datatype::byte(), rank + dist,
                        tag_base + round);
        }
        if (rank >= dist) {
            comm.recv_i(incoming.data(), n * sizeof(T), dt::Datatype::byte(), rank - dist,
                        tag_base + round);
            detail::apply_op(op, data, incoming.data(), n);
        }
    }
}

/// Exclusive prefix reduction (MPI_Exscan): rank r holds
/// op(data_0, ..., data_{r-1}); rank 0's buffer is set to `identity`.
template <typename T>
void exscan(rt::Comm& comm, T* data, std::size_t n, ReduceOp op, T identity = T{}) {
    scan(comm, data, n, op);
    // Shift the inclusive results one rank to the right.
    const int tag = rt::epoch_tag(rt::kInternalTagBase + 0x420, comm.next_collective_epoch());
    const int rank = comm.rank();
    const int size = comm.size();
    std::vector<T> mine(data, data + n);
    if (rank + 1 < size) {
        comm.send_i(mine.data(), n * sizeof(T), dt::Datatype::byte(), rank + 1, tag);
    }
    if (rank > 0) {
        comm.recv_i(data, n * sizeof(T), dt::Datatype::byte(), rank - 1, tag);
    } else {
        for (std::size_t i = 0; i < n; ++i) data[i] = identity;
    }
}

}  // namespace nncomm::coll
