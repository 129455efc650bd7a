// Correctness tests for every collective algorithm at multiple world sizes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/util.hpp"
#include "core/rng.hpp"

namespace {

using namespace nncomm;
using coll::AllgathervAlgo;
using coll::AlltoallwAlgo;
using coll::CollConfig;
using coll::ReduceOp;
using dt::Datatype;
using rt::Comm;
using rt::World;

// ---------------------------------------------------------------------------
// bcast / reduce / allreduce

TEST(Bcast, AllRootsAllSizes) {
    for (int n : {1, 2, 3, 5, 8}) {
        World w(n);
        for (int root = 0; root < n; ++root) {
            w.run([&](Comm& c) {
                std::vector<int> data(16, c.rank() == root ? 77 : -1);
                coll::bcast(c, data.data(), data.size() * 4, Datatype::byte(), root);
                for (int v : data) EXPECT_EQ(v, 77) << "n=" << n << " root=" << root;
            });
        }
    }
}

TEST(Reduce, SumToEachRoot) {
    const int n = 6;
    World w(n);
    for (int root = 0; root < n; ++root) {
        w.run([&](Comm& c) {
            std::vector<long> v{static_cast<long>(c.rank()), 10L * c.rank()};
            coll::reduce(c, v.data(), v.size(), ReduceOp::Sum, root);
            if (c.rank() == root) {
                EXPECT_EQ(v[0], n * (n - 1) / 2);
                EXPECT_EQ(v[1], 10L * n * (n - 1) / 2);
            }
        });
    }
}

TEST(Reduce, MaxAndMin) {
    const int n = 7;
    World w(n);
    w.run([&](Comm& c) {
        double mx = static_cast<double>(c.rank());
        coll::reduce(c, &mx, 1, ReduceOp::Max, 0);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(mx, n - 1.0);
        }
        double mn = static_cast<double>(c.rank()) + 5.0;
        coll::reduce(c, &mn, 1, ReduceOp::Min, 0);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(mn, 5.0);
        }
    });
}

TEST(Allreduce, SumIdenticalEverywhere) {
    for (int n : {1, 2, 4, 5, 9}) {
        World w(n);
        w.run([&](Comm& c) {
            double v = 1.5;
            coll::allreduce(c, &v, 1, ReduceOp::Sum);
            EXPECT_DOUBLE_EQ(v, 1.5 * n);
            EXPECT_DOUBLE_EQ(coll::allreduce_one(c, static_cast<double>(c.rank()), ReduceOp::Max),
                             n - 1.0);
        });
    }
}

// The binomial reduce as a straight-line point-to-point loop, the shape
// coll::reduce had before it ran its Schedule. Each rank folds children in
// ascending-mask order, then sends its partial result to its parent.
template <typename T>
void reference_reduce(Comm& c, T* data, std::size_t n, ReduceOp op, int root) {
    constexpr int kTag = 0x5ED;
    const int size = c.size();
    const int vrank = (c.rank() - root + size) % size;
    std::vector<T> incoming(n);
    for (int mask = 1; mask < size; mask <<= 1) {
        if ((vrank & mask) != 0) {
            const int dst = ((vrank & ~mask) + root) % size;
            c.send(data, n * sizeof(T), Datatype::byte(), dst, kTag);
            return;
        }
        const int vsrc = vrank | mask;
        if (vsrc < size) {
            const int src = (vsrc + root) % size;
            c.recv(incoming.data(), n * sizeof(T), Datatype::byte(), src, kTag);
            coll::detail::apply_op(op, data, incoming.data(), n);
        }
    }
}

// Doubles with all 52 mantissa bits random, exponents spread over 2^-8..2^7
// and random signs, so any change to the association order of a Sum
// changes the result's bits.
double full_mantissa(Rng& rng) {
    const std::uint64_t mantissa = rng.next_u64() >> 12;
    const std::uint64_t exponent = rng.uniform_u64(1023 - 8, 1023 + 7);
    const std::uint64_t sign = rng.next_u64() >> 63;
    return std::bit_cast<double>((sign << 63) | (exponent << 52) | mantissa);
}

template <typename T>
void expect_reduce_pinned(Comm& c, const std::vector<T>& mine, ReduceOp op, int root) {
    const std::size_t bytes = mine.size() * sizeof(T);
    std::vector<T> got = mine, want = mine;
    coll::reduce(c, got.data(), got.size(), op, root);
    reference_reduce(c, want.data(), want.size(), op, root);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
        << "reduce size=" << c.size() << " root=" << root << " rank=" << c.rank();
    if (root != 0) return;
    got = mine;
    want = mine;
    coll::allreduce(c, got.data(), got.size(), op);
    reference_reduce(c, want.data(), want.size(), op, 0);
    coll::bcast(c, want.data(), bytes, Datatype::byte(), 0);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
        << "allreduce size=" << c.size() << " rank=" << c.rank();
}

// Every rank's buffer (partial results on non-roots included) must match
// the point-to-point tree bit for bit: the V-cycle pins and e2ebench's
// agreement checks rest on these reductions.
TEST(Reduce, BitIdenticalToPointToPointTree) {
    for (int size = 1; size <= 7; ++size) {
        World w(size);
        w.run([&](Comm& c) {
            Rng rng(0xC0FFEEu + 977u * static_cast<std::uint64_t>(size) +
                    static_cast<std::uint64_t>(c.rank()));
            for (int root = 0; root < size; ++root) {
                for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min}) {
                    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
                        std::vector<double> d(n);
                        for (double& v : d) v = full_mantissa(rng);
                        expect_reduce_pinned(c, d, op, root);
                        std::vector<int> i(n);
                        for (int& v : i) {
                            v = static_cast<int>(rng.uniform_u64(0, 2'000'000)) - 1'000'000;
                        }
                        expect_reduce_pinned(c, i, op, root);
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// allgatherv — all algorithms, uniform and outlier volume sets

struct AgvCase {
    int nranks;
    AllgathervAlgo algo;
};

class AllgathervAll : public ::testing::TestWithParam<std::tuple<int, int>> {};

void run_allgatherv_case(int n, AllgathervAlgo algo, bool outlier) {
    if (algo == AllgathervAlgo::RecursiveDoubling && (n & (n - 1)) != 0) {
        GTEST_SKIP() << "recursive doubling needs power-of-two ranks";
    }
    World w(n);
    w.run([&](Comm& c) {
        // Rank r contributes `counts[r]` doubles of value 1000*r + j.
        std::vector<std::size_t> counts(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            counts[static_cast<std::size_t>(i)] =
                (outlier && i == 0) ? 4096 : static_cast<std::size_t>(1 + (i % 3));
        }
        std::vector<std::size_t> displs(static_cast<std::size_t>(n));
        std::size_t at = 0;
        for (int i = 0; i < n; ++i) {
            displs[static_cast<std::size_t>(i)] = at;
            at += counts[static_cast<std::size_t>(i)];
        }
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> send(mine);
        for (std::size_t j = 0; j < mine; ++j) {
            send[j] = 1000.0 * c.rank() + static_cast<double>(j);
        }
        std::vector<double> recv(at, -1.0);
        CollConfig cfg;
        cfg.allgatherv_algo = algo;
        coll::allgatherv(c, send.data(), mine, Datatype::float64(), recv.data(), counts, displs,
                         Datatype::float64(), cfg);
        for (int i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < counts[static_cast<std::size_t>(i)]; ++j) {
                EXPECT_DOUBLE_EQ(recv[displs[static_cast<std::size_t>(i)] + j],
                                 1000.0 * i + static_cast<double>(j))
                    << "n=" << n << " rank-block=" << i << " j=" << j;
            }
        }
    });
}

TEST_P(AllgathervAll, UniformVolumes) {
    const auto [n, algo_i] = GetParam();
    run_allgatherv_case(n, static_cast<AllgathervAlgo>(algo_i), /*outlier=*/false);
}

TEST_P(AllgathervAll, OutlierVolumes) {
    const auto [n, algo_i] = GetParam();
    run_allgatherv_case(n, static_cast<AllgathervAlgo>(algo_i), /*outlier=*/true);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllgathervAll,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(Allgather, UniformWrapper) {
    const int n = 6;
    World w(n);
    w.run([&](Comm& c) {
        std::array<double, 2> mine{c.rank() + 0.25, c.rank() + 0.75};
        std::vector<double> all(2 * static_cast<std::size_t>(n));
        coll::allgather(c, mine.data(), 2, Datatype::float64(), all.data(), 2,
                        Datatype::float64());
        for (int i = 0; i < n; ++i) {
            EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i)], i + 0.25);
            EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i + 1)], i + 0.75);
        }
    });
}

TEST(Allgatherv, NoncontiguousRecvType) {
    // Gather into every third double of the destination: recvtype =
    // resized double with 24-byte extent.
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        auto spaced = Datatype::resized(Datatype::float64(), 0, 24);
        std::vector<std::size_t> counts(static_cast<std::size_t>(n), 2);
        std::vector<std::size_t> displs{0, 2, 4, 6};
        double send[2] = {c.rank() + 0.5, c.rank() + 0.75};
        std::vector<double> recv(3 * 8, -1.0);
        coll::allgatherv(c, send, 16, Datatype::byte(), recv.data(), counts, displs, spaced);
        for (int i = 0; i < n; ++i) {
            EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(6 * i)], i + 0.5);
            EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(6 * i + 3)], i + 0.75);
            EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(6 * i + 1)], -1.0);
        }
    });
}

TEST(Allgatherv, SizeMismatchRejected) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     std::vector<std::size_t> counts{1, 1};
                     std::vector<std::size_t> displs{0, 1};
                     double s[2] = {0, 0};
                     double r[2];
                     coll::allgatherv(c, s, 2, Datatype::float64(), r, counts, displs,
                                      Datatype::float64());
                 }),
                 nncomm::Error);
}

// ---------------------------------------------------------------------------
// alltoallw — both algorithms, nearest-neighbor ring pattern

class AlltoallwAll : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AlltoallwAll, RingNeighborExchange) {
    const auto [n, algo_i] = GetParam();
    const auto algo = static_cast<AlltoallwAlgo>(algo_i);
    World w(n);
    w.run([&](Comm& c) {
        // The paper's Fig. 15 pattern: each rank exchanges a 10x10 matrix of
        // doubles with its ring successor and predecessor, nothing with
        // anyone else.
        const int rank = c.rank();
        const int succ = (rank + 1) % n;
        const int pred = (rank + n - 1) % n;
        const std::size_t nn = static_cast<std::size_t>(n);
        constexpr std::size_t kElems = 100;

        std::vector<double> sendbuf(nn * kElems, 0.0);
        std::vector<double> recvbuf(nn * kElems, -1.0);
        std::vector<std::size_t> scounts(nn, 0), rcounts(nn, 0);
        std::vector<std::ptrdiff_t> sdispls(nn, 0), rdispls(nn, 0);
        std::vector<Datatype> types(nn, Datatype::float64());
        for (std::size_t i = 0; i < nn; ++i) {
            sdispls[i] = static_cast<std::ptrdiff_t>(i * kElems * 8);
            rdispls[i] = static_cast<std::ptrdiff_t>(i * kElems * 8);
        }
        for (int peer : {succ, pred}) {
            const auto p = static_cast<std::size_t>(peer);
            scounts[p] = kElems;
            rcounts[p] = kElems;
            for (std::size_t j = 0; j < kElems; ++j) {
                sendbuf[p * kElems + j] = 10000.0 * rank + 100.0 * peer + static_cast<double>(j);
            }
        }
        CollConfig cfg;
        cfg.alltoallw_algo = algo;
        coll::alltoallw(c, sendbuf.data(), scounts, sdispls, types, recvbuf.data(), rcounts,
                        rdispls, types, cfg);

        for (int peer : {succ, pred}) {
            const auto p = static_cast<std::size_t>(peer);
            for (std::size_t j = 0; j < kElems; ++j) {
                EXPECT_DOUBLE_EQ(recvbuf[p * kElems + j],
                                 10000.0 * peer + 100.0 * rank + static_cast<double>(j))
                    << "n=" << n << " peer=" << peer << " j=" << j;
            }
        }
        // Non-neighbors must remain untouched (n > 3 makes them distinct).
        if (n > 3) {
            const auto far = static_cast<std::size_t>((rank + 2) % n);
            EXPECT_DOUBLE_EQ(recvbuf[far * kElems], -1.0);
        }
    });
}

TEST_P(AlltoallwAll, NonuniformVolumesWithDerivedTypes) {
    const auto [n, algo_i] = GetParam();
    const auto algo = static_cast<AlltoallwAlgo>(algo_i);
    if (n < 2) GTEST_SKIP();
    World w(n);
    w.run([&](Comm& c) {
        // Rank r sends (r + i) % 4 strided doubles to each rank i (zero for
        // some pairs), sent as every-other-double and received densely.
        const int rank = c.rank();
        const auto nn = static_cast<std::size_t>(n);
        auto strided = Datatype::resized(Datatype::float64(), 0, 16);

        auto vol = [&](int from, int to) { return static_cast<std::size_t>((from + to) % 4); };

        std::vector<double> sendbuf(nn * 8, 0.0);
        std::vector<double> recvbuf(nn * 4, -1.0);
        std::vector<std::size_t> scounts(nn), rcounts(nn);
        std::vector<std::ptrdiff_t> sdispls(nn), rdispls(nn);
        std::vector<Datatype> stypes(nn, strided), rtypes(nn, Datatype::float64());
        for (int i = 0; i < n; ++i) {
            const auto ii = static_cast<std::size_t>(i);
            scounts[ii] = vol(rank, i);
            rcounts[ii] = vol(i, rank);
            sdispls[ii] = static_cast<std::ptrdiff_t>(ii * 8 * 8);
            rdispls[ii] = static_cast<std::ptrdiff_t>(ii * 4 * 8);
            for (std::size_t j = 0; j < scounts[ii]; ++j) {
                sendbuf[ii * 8 + 2 * j] = 100.0 * rank + 10.0 * i + static_cast<double>(j);
            }
        }
        CollConfig cfg;
        cfg.alltoallw_algo = algo;
        cfg.small_msg_threshold = 17;  // split the 0..3-double volumes across bins
        coll::alltoallw(c, sendbuf.data(), scounts, sdispls, stypes, recvbuf.data(), rcounts,
                        rdispls, rtypes, cfg);
        for (int i = 0; i < n; ++i) {
            const auto ii = static_cast<std::size_t>(i);
            for (std::size_t j = 0; j < rcounts[ii]; ++j) {
                EXPECT_DOUBLE_EQ(recvbuf[ii * 4 + j],
                                 100.0 * i + 10.0 * rank + static_cast<double>(j))
                    << "from=" << i << " j=" << j;
            }
            for (std::size_t j = rcounts[ii]; j < 4; ++j) {
                EXPECT_DOUBLE_EQ(recvbuf[ii * 4 + j], -1.0);
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlltoallwAll,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8, 12),
                                            ::testing::Values(1, 2)));  // RoundRobin, Binned

TEST(Alltoall, UniformContiguous) {
    const int n = 5;
    World w(n);
    w.run([&](Comm& c) {
        const auto nn = static_cast<std::size_t>(n);
        std::vector<int> send(nn * 2), recv(nn * 2, -1);
        for (int i = 0; i < n; ++i) {
            send[static_cast<std::size_t>(2 * i)] = 100 * c.rank() + i;
            send[static_cast<std::size_t>(2 * i + 1)] = -100 * c.rank() - i;
        }
        coll::alltoall(c, send.data(), 8, Datatype::byte(), recv.data());
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i)], 100 * i + c.rank());
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i + 1)], -100 * i - c.rank());
        }
    });
}

// ---------------------------------------------------------------------------
// copy_typed aliasing (the local "self send" every alltoallw performs)

TEST(CopyTyped, IdenticalInPlaceCopyIsNoop) {
    // src == dst on the contiguous path: must not call memcpy on the
    // identical range (undefined behavior the ASan gate flags).
    std::vector<int> buf(16);
    std::iota(buf.begin(), buf.end(), 0);
    coll::detail::copy_typed(buf.data(), buf.size() * 4, Datatype::byte(), buf.data(),
                             buf.size() * 4, Datatype::byte());
    for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i)], i);
}

TEST(CopyTyped, OverlappingContiguousCopyUsesMemmove) {
    // Forward-overlapping ranges (dst inside src): memcpy is undefined
    // here; memmove must produce the shifted copy intact.
    std::vector<int> buf(24);
    std::iota(buf.begin(), buf.end(), 0);
    coll::detail::copy_typed(buf.data(), 16 * 4, Datatype::byte(), buf.data() + 4, 16 * 4,
                             Datatype::byte());
    for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i + 4)], i);
}

TEST(CopyTyped, OneContiguousSideCopiesOnceUnlessLayoutsOverlap) {
    // One side contiguous: the other side's plan kernel reads or writes it
    // directly. Every other int of a 4-block vector pairs with 4 dense ints.
    const Datatype strided = Datatype::vector(4, 1, 2, Datatype::int32());
    std::vector<int> dense{1, 2, 3, 4}, sparse(8, -1);
    coll::detail::copy_typed(dense.data(), 4, Datatype::int32(), sparse.data(), 1, strided);
    EXPECT_EQ(sparse, (std::vector<int>{1, -1, 2, -1, 3, -1, 4, -1}));
    std::vector<int> back(4, 0);
    coll::detail::copy_typed(sparse.data(), 1, strided, back.data(), 4, Datatype::int32());
    EXPECT_EQ(back, dense);

    // Overlapping layouts: ints 0..3 into every other slot from index 1.
    // A direct unpack would read slots it has already overwritten; the
    // staged copy moves the original values.
    std::vector<int> buf(8);
    std::iota(buf.begin(), buf.end(), 0);
    coll::detail::copy_typed(buf.data(), 4, Datatype::int32(), buf.data() + 1, 1, strided);
    EXPECT_EQ(buf, (std::vector<int>{0, 0, 2, 1, 4, 2, 6, 3}));
}

TEST(CopyTyped, AlltoallwInPlaceSelfExchange) {
    // Both algorithms route the self block through copy_typed. With
    // sendbuf == recvbuf, zero volume for every other peer, and identical
    // self displacements, the self copy is fully aliased: it must be a
    // no-op, not a memcpy over the identical range.
    for (auto algo : {AlltoallwAlgo::RoundRobin, AlltoallwAlgo::Binned}) {
        const int n = 3;
        World w(n);
        w.run([&](Comm& c) {
            const auto un = static_cast<std::size_t>(n);
            const auto me = static_cast<std::size_t>(c.rank());
            CollConfig cfg;
            cfg.alltoallw_algo = algo;
            std::vector<std::size_t> counts(un, 0);
            counts[me] = 4;
            std::vector<std::ptrdiff_t> displs(un, 0);
            std::vector<Datatype> types(un, Datatype::int32());
            std::vector<std::int32_t> buf(8);
            std::iota(buf.begin(), buf.end(), c.rank() * 10);
            coll::alltoallw(c, buf.data(), counts, displs, types, buf.data(), counts, displs,
                            types, cfg);
            for (int i = 0; i < 8; ++i) {
                EXPECT_EQ(buf[static_cast<std::size_t>(i)], c.rank() * 10 + i)
                    << "algo=" << static_cast<int>(algo);
            }
        });
    }
}

TEST(CopyTyped, AlltoallwOverlappingSelfExchange) {
    // Partially overlapping self displacements (recv block starts 8 bytes
    // into the send block): the contiguous path must behave like memmove.
    const int n = 2;
    World w(n);
    w.run([&](Comm& c) {
        const auto un = static_cast<std::size_t>(n);
        const auto me = static_cast<std::size_t>(c.rank());
        std::vector<std::size_t> counts(un, 0);
        counts[me] = 4;
        std::vector<std::ptrdiff_t> sdispls(un, 0), rdispls(un, 0);
        rdispls[me] = 8;
        std::vector<Datatype> types(un, Datatype::int32());
        std::vector<std::int32_t> buf(8);
        std::iota(buf.begin(), buf.end(), 0);
        coll::alltoallw(c, buf.data(), counts, sdispls, types, buf.data(), counts, rdispls,
                        types);
        // buf[2..5] now holds the original buf[0..3]; the head is untouched.
        EXPECT_EQ(buf[0], 0);
        EXPECT_EQ(buf[1], 1);
        for (int i = 0; i < 4; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i + 2)], i);
    });
}

}  // namespace
