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
// The remaining operations (bcast, reduce, allreduce, allgather, alltoall)
// complete the substrate the PETSc layer needs.
//
// Every entry point here is a blocking build + start + wait wrapper around
// its nonblocking icoll in schedule.hpp, so each collective has exactly one
// implementation: the Schedule its builder emits, which the runtime
// executes and netsim lowers.
#pragma once

#include <cstddef>
#include <span>

#include "coll/config.hpp"
#include "coll/schedule.hpp"

namespace nncomm::coll {

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

/// Binomial-tree reduction of `n` values to the root's buffer (in place on
/// every rank; non-root buffers are used as scratch and keep their local
/// contribution semantics undefined afterwards on non-roots).
template <typename T>
void reduce(rt::Comm& comm, T* data, std::size_t n, ReduceOp op, int root) {
    ireduce(comm, data, n, op, root).wait();
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

}  // namespace nncomm::coll
