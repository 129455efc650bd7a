// Tests for VecScatter across all three backends: permutations, gathers,
// strided scatters, the paper's §5.4 benchmark pattern, and traffic
// introspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/rng.hpp"
#include "datatype/plan.hpp"
#include "petsckit/scatter.hpp"

namespace {

using namespace nncomm;
using pk::Index;
using pk::IndexSet;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;
using rt::Comm;
using rt::World;

constexpr ScatterBackend kBackends[] = {ScatterBackend::HandTuned,
                                        ScatterBackend::DatatypeBaseline,
                                        ScatterBackend::DatatypeOptimized};

void fill_global_identity(Vec& v) {
    for (Index i = v.range().begin; i < v.range().end; ++i) {
        v.at_global(i) = static_cast<double>(i);
    }
}

class ScatterBackends : public ::testing::TestWithParam<int> {
protected:
    ScatterBackend backend() const { return kBackends[GetParam()]; }
};

TEST_P(ScatterBackends, IdentityScatter) {
    World w(4);
    w.run([&](Comm& c) {
        Vec src(c, 20), dst(c, 20);
        fill_global_identity(src);
        auto is = IndexSet::identity(20);
        VecScatter sc(src, is, dst, is);
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(i));
        }
    });
}

TEST_P(ScatterBackends, ReversePermutation) {
    World w(4);
    w.run([&](Comm& c) {
        const Index n = 23;
        Vec src(c, n), dst(c, n);
        fill_global_identity(src);
        VecScatter sc(src, IndexSet::identity(n), dst, IndexSet::stride(n - 1, -1, n));
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(n - 1 - i));
        }
    });
}

TEST_P(ScatterBackends, GatherSubsetIntoSmallVector) {
    World w(3);
    w.run([&](Comm& c) {
        Vec src(c, 30), dst(c, 10);
        fill_global_identity(src);
        // Every third entry of src lands densely in dst.
        VecScatter sc(src, IndexSet::stride(0, 3, 10), dst, IndexSet::identity(10));
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(3 * i));
        }
    });
}

TEST_P(ScatterBackends, ScatterIntoStridedDestination) {
    World w(3);
    w.run([&](Comm& c) {
        Vec src(c, 8), dst(c, 24);
        fill_global_identity(src);
        dst.set_all(-1.0);
        VecScatter sc(src, IndexSet::identity(8), dst, IndexSet::stride(1, 3, 8));
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            if ((i - 1) % 3 == 0 && i >= 1) {
                EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>((i - 1) / 3));
            } else {
                EXPECT_DOUBLE_EQ(dst.at_global(i), -1.0);
            }
        }
    });
}

TEST_P(ScatterBackends, PaperVectorScatterPattern) {
    // §5.4: two 1-D grids laid out in parallel; each process scatters the
    // elements of its portion of the first vector to unique portions of
    // the second (here: a global cyclic shuffle dst[k] = (k * stride) % n
    // with stride coprime to n, which spreads every rank's data over all
    // ranks).
    World w(4);
    w.run([&](Comm& c) {
        const Index n = 64;
        Vec src(c, n), dst(c, n);
        fill_global_identity(src);
        std::vector<Index> to(static_cast<std::size_t>(n));
        for (Index k = 0; k < n; ++k) to[static_cast<std::size_t>(k)] = (k * 13) % n;
        VecScatter sc(src, IndexSet::identity(n), dst, IndexSet::general(to));
        sc.execute(src, dst, backend());
        for (Index k = dst.range().begin; k < dst.range().end; ++k) {
            // dst[(k*13)%n] = k  =>  dst[j] = k where k*13 ≡ j (mod n).
            Index k_src = -1;
            for (Index q = 0; q < n; ++q) {
                if ((q * 13) % n == k) {
                    k_src = q;
                    break;
                }
            }
            EXPECT_DOUBLE_EQ(dst.at_global(k), static_cast<double>(k_src));
        }
    });
}

TEST_P(ScatterBackends, RepeatedExecution) {
    World w(2);
    w.run([&](Comm& c) {
        Vec src(c, 10), dst(c, 10);
        VecScatter sc(src, IndexSet::identity(10), dst, IndexSet::stride(9, -1, 10));
        for (int round = 0; round < 5; ++round) {
            for (Index i = src.range().begin; i < src.range().end; ++i) {
                src.at_global(i) = static_cast<double>(100 * round + i);
            }
            sc.execute(src, dst, backend());
            for (Index i = dst.range().begin; i < dst.range().end; ++i) {
                EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(100 * round + 9 - i));
            }
        }
    });
}

TEST_P(ScatterBackends, EmptyScatter) {
    World w(3);
    w.run([&](Comm& c) {
        Vec src(c, 6), dst(c, 6);
        VecScatter sc(src, IndexSet::general({}), dst, IndexSet::general({}));
        dst.set_all(5.0);
        sc.execute(src, dst, backend());
        for (double v : dst.local()) EXPECT_DOUBLE_EQ(v, 5.0);
    });
}

TEST_P(ScatterBackends, SingleRank) {
    World w(1);
    w.run([&](Comm& c) {
        Vec src(c, 6), dst(c, 6);
        fill_global_identity(src);
        VecScatter sc(src, IndexSet::identity(6), dst, IndexSet::stride(5, -1, 6));
        sc.execute(src, dst, backend());
        for (Index i = 0; i < 6; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(5 - i));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ScatterBackends, ::testing::Values(0, 1, 2));

TEST(Scatter, AllBackendsProduceIdenticalResults) {
    World w(4);
    w.run([](Comm& c) {
        const Index n = 40;
        Vec src(c, n);
        fill_global_identity(src);
        std::vector<Index> to(static_cast<std::size_t>(n));
        for (Index k = 0; k < n; ++k) to[static_cast<std::size_t>(k)] = (k * 7 + 3) % n;
        VecScatter sc(src, IndexSet::identity(n),
                      Vec(c, n), IndexSet::general(to));
        std::array<Vec, 3> results{Vec(c, n), Vec(c, n), Vec(c, n)};
        for (int b = 0; b < 3; ++b) {
            sc.execute(src, results[static_cast<std::size_t>(b)], kBackends[b]);
        }
        for (int b = 1; b < 3; ++b) {
            for (Index i = results[0].range().begin; i < results[0].range().end; ++i) {
                EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(b)].at_global(i),
                                 results[0].at_global(i));
            }
        }
    });
}

TEST(Scatter, MismatchedIndexSetsRejected) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     Vec src(c, 4), dst(c, 4);
                     VecScatter sc(src, IndexSet::identity(4), dst, IndexSet::identity(3));
                 }),
                 nncomm::Error);
}

TEST(Scatter, TrafficIntrospection) {
    World w(4);
    w.run([](Comm& c) {
        const Index n = 16;  // 4 entries per rank
        Vec src(c, n), dst(c, n);
        // Full reversal: rank r sends everything to rank 3 - r.
        VecScatter sc(src, IndexSet::identity(n), dst, IndexSet::stride(n - 1, -1, n));
        const auto& bytes = sc.send_bytes();
        ASSERT_EQ(bytes.size(), 4u);
        const auto peer = static_cast<std::size_t>(3 - c.rank());
        for (std::size_t r = 0; r < 4; ++r) {
            EXPECT_EQ(bytes[r], r == peer ? 4u * 8u : 0u) << "rank " << c.rank() << "->" << r;
        }
        // The reversed destination makes each send one contiguous source
        // block (indices are consecutive).
        const auto blocks = sc.send_blocks();
        EXPECT_EQ(blocks[peer], 1u);
        EXPECT_EQ(sc.local_moves(), 0u);
    });
}

// ---------------------------------------------------------------------------
// gather_sparse: NBX sparse-neighborhood plan discovery

// Each rank declares only its own needs; the discovered plan must be
// indistinguishable from one built the replicated way from the same pairs.
TEST(GatherSparse, MatchesReplicatedPlan) {
    World w(4);
    w.run([](Comm& c) {
        const Index n = 40;
        Vec src(c, n);
        fill_global_identity(src);
        const auto& src_layout = src.layout();

        // Deterministic per-rank need list: a mix of owned and remote
        // indices, repeats across ranks allowed.
        const Index per_rank = 6;
        auto needs_of = [&](int r) {
            std::vector<Index> v;
            for (Index t = 0; t < per_rank; ++t) {
                v.push_back((static_cast<Index>(r) * 7 + t * 3 + t * t) % n);
            }
            return v;
        };
        const std::vector<Index> mine = needs_of(c.rank());

        std::vector<Index> counts(4, per_rank);
        const auto dst_layout =
            std::make_shared<const pk::Layout>(pk::Layout::from_counts(counts));
        Vec dst_sparse(c, dst_layout), dst_repl(c, dst_layout);

        VecScatter sparse = VecScatter::gather_sparse(c, src_layout, mine, *dst_layout);

        // The replicated oracle: every rank passes all ranks' needs.
        std::vector<Index> all_src;
        for (int r = 0; r < 4; ++r) {
            const auto v = needs_of(r);
            all_src.insert(all_src.end(), v.begin(), v.end());
        }
        VecScatter repl(c, src_layout, IndexSet::general(all_src), *dst_layout,
                        IndexSet::identity(static_cast<Index>(all_src.size())));

        // Identical traffic plan...
        EXPECT_EQ(sparse.send_bytes(), repl.send_bytes());
        EXPECT_EQ(sparse.send_blocks(), repl.send_blocks());
        EXPECT_EQ(sparse.local_moves(), repl.local_moves());

        // ...and identical data movement on every backend.
        for (ScatterBackend backend : kBackends) {
            std::fill(dst_sparse.data(), dst_sparse.data() + per_rank, -1.0);
            std::fill(dst_repl.data(), dst_repl.data() + per_rank, -1.0);
            sparse.execute(src, dst_sparse, backend);
            repl.execute(src, dst_repl, backend);
            for (Index k = 0; k < per_rank; ++k) {
                const auto kk = static_cast<std::size_t>(k);
                EXPECT_DOUBLE_EQ(dst_sparse.data()[kk], static_cast<double>(mine[kk]));
                EXPECT_DOUBLE_EQ(dst_sparse.data()[kk], dst_repl.data()[kk]);
            }
        }
    });
}

// offsets_type's type is born flat, merging each run of consecutive
// offsets into one block of its table. Its flattened layout,
// compiled kernel and packed stream must be exactly those of one block per
// element, checked against oracles that share none of that path: the block
// list and the gathered values computed here, and a per-element struct
// type, which appends its fields one at a time. Shapes: contiguous runs,
// long contiguous runs (the multigrid patch shape), strides 2-4, gaps
// 1-9, repeated and descending offsets, runs that abut across segments,
// whole planes of a box, a single offset and the empty list.
TEST(GatherSparse, CoalescedOffsetsTypeMatchesPerElementType) {
    auto per_element = [](const std::vector<Index>& offsets) {
        std::vector<std::size_t> lens(offsets.size(), 1);
        std::vector<std::ptrdiff_t> displs(offsets.size());
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            displs[i] = static_cast<std::ptrdiff_t>(offsets[i]) * 8;
        }
        const std::vector<dt::Datatype> types(offsets.size(), dt::Datatype::float64());
        return dt::Datatype::struct_type(lens, displs, types);
    };
    auto expected_blocks = [](const std::vector<Index>& offsets) {
        std::vector<dt::FlatBlock> blocks;
        for (const Index o : offsets) {
            const std::ptrdiff_t at = static_cast<std::ptrdiff_t>(o) * 8;
            if (!blocks.empty() &&
                blocks.back().offset + static_cast<std::ptrdiff_t>(blocks.back().length) == at) {
                blocks.back().length += 8;
            } else {
                blocks.push_back({at, 8});
            }
        }
        return blocks;
    };
    auto pack = [](const dt::Datatype& t, const std::vector<double>& src) {
        std::vector<std::byte> out(t.size());
        if (!out.empty()) {
            t.plan().pack(t.flat(), reinterpret_cast<const std::byte*>(src.data()), 1, out);
        }
        return out;
    };

    std::vector<std::vector<Index>> cases = {{}, {0}, {17}, {5, 5}, {3, 2, 1, 0}};
    {
        // Interior of an 8x8x8 box in a 12x12x12 array: 64 runs of 8.
        std::vector<Index> box;
        for (Index z = 2; z < 10; ++z) {
            for (Index y = 2; y < 10; ++y) {
                for (Index x = 2; x < 10; ++x) box.push_back((z * 12 + y) * 12 + x);
            }
        }
        cases.push_back(std::move(box));
    }
    Rng rng(0x5ca77e5);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<Index> offs;
        const auto segments = rng.uniform_i64(1, 6);
        for (std::int64_t seg = 0; seg < segments; ++seg) {
            // Start fresh or right after the previous segment's last offset,
            // so runs also meet across segment boundaries.
            Index at = offs.empty() || rng.bernoulli(0.5) ? rng.uniform_i64(0, 4096)
                                                          : offs.back() + 1;
            const auto kind = rng.uniform_u64(0, 5);
            const auto len = kind == 5 ? rng.uniform_i64(64, 1024) : rng.uniform_i64(1, 64);
            const Index stride = rng.uniform_i64(2, 4);
            for (std::int64_t l = 0; l < len; ++l) {
                offs.push_back(at);
                switch (kind) {
                    case 0: at += 1; break;                        // contiguous
                    case 1: at += stride; break;                   // strided
                    case 2: at += rng.uniform_i64(1, 9); break;    // gaps
                    case 3: at += rng.bernoulli(0.5) ? 0 : 1; break;  // repeats
                    case 4: at = std::max<Index>(0, at - rng.uniform_i64(1, 2)); break;
                    default: at += 1; break;                       // long run
                }
            }
        }
        cases.push_back(std::move(offs));
    }

    for (const std::vector<Index>& offs : cases) {
        const dt::Datatype coalesced = pk::offsets_type(offs);
        const dt::Datatype reference = per_element(offs);
        const std::vector<dt::FlatBlock> want = expected_blocks(offs);
        const auto& cb = coalesced.flat().blocks();
        ASSERT_EQ(cb.size(), want.size());
        for (std::size_t i = 0; i < cb.size(); ++i) {
            EXPECT_EQ(cb[i].offset, want[i].offset) << "block " << i;
            EXPECT_EQ(cb[i].length, want[i].length) << "block " << i;
        }
        EXPECT_EQ(coalesced.flat().prefix_bytes().back(), offs.size() * 8);
        EXPECT_EQ(coalesced.block_count(), reference.block_count());
        EXPECT_EQ(coalesced.size(), reference.size());
        EXPECT_EQ(coalesced.extent(), reference.extent());
        EXPECT_EQ(coalesced.lb(), reference.lb());
        EXPECT_EQ(coalesced.plan().kernel(), reference.plan().kernel());
        EXPECT_EQ(coalesced.plan().block_length(), reference.plan().block_length());
        EXPECT_EQ(coalesced.plan().blocks_per_instance(),
                  reference.plan().blocks_per_instance());

        Index hi = 0;
        for (const Index o : offs) hi = std::max(hi, o + 1);
        std::vector<double> src(static_cast<std::size_t>(hi));
        std::iota(src.begin(), src.end(), 0.5);
        std::vector<double> gathered;
        for (const Index o : offs) gathered.push_back(src[static_cast<std::size_t>(o)]);
        const std::vector<std::byte> a = pack(coalesced, src);
        const std::vector<std::byte> b = pack(reference, src);
        ASSERT_EQ(a.size(), offs.size() * 8);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(a.empty() || std::memcmp(a.data(), gathered.data(), a.size()) == 0);
        EXPECT_TRUE(a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
    }
}

TEST(GatherSparse, EmptyNeedsOnSomeRanks) {
    // Ranks 1..3 need nothing; rank 0 pulls one entry from everyone. No
    // rank may deadlock waiting for metadata that never comes.
    World w(4);
    w.run([](Comm& c) {
        const Index n = 12;  // 3 per rank
        Vec src(c, n);
        fill_global_identity(src);
        std::vector<Index> mine;
        if (c.rank() == 0) mine = {2, 4, 7, 10};
        std::vector<Index> counts = {4, 0, 0, 0};
        const auto dst_layout =
            std::make_shared<const pk::Layout>(pk::Layout::from_counts(counts));
        Vec dst(c, dst_layout);
        VecScatter sc = VecScatter::gather_sparse(c, src.layout(), mine, *dst_layout);
        sc.execute(src, dst, ScatterBackend::HandTuned);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(dst.data()[0], 2.0);
            EXPECT_DOUBLE_EQ(dst.data()[1], 4.0);
            EXPECT_DOUBLE_EQ(dst.data()[2], 7.0);
            EXPECT_DOUBLE_EQ(dst.data()[3], 10.0);
        }
    });
}

TEST(GatherSparse, AllLocalNeedsNoTraffic) {
    World w(3);
    w.run([](Comm& c) {
        const Index n = 9;
        Vec src(c, n);
        fill_global_identity(src);
        // Every rank needs exactly its own entries: zero wire traffic.
        std::vector<Index> mine;
        for (Index g = src.range().begin; g < src.range().end; ++g) mine.push_back(g);
        std::vector<Index> counts(3, 3);
        const auto dst_layout =
            std::make_shared<const pk::Layout>(pk::Layout::from_counts(counts));
        Vec dst(c, dst_layout);
        VecScatter sc = VecScatter::gather_sparse(c, src.layout(), mine, *dst_layout);
        for (std::uint64_t b : sc.send_bytes()) EXPECT_EQ(b, 0u);
        EXPECT_EQ(sc.local_moves(), 3u);
        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        for (std::size_t k = 0; k < 3; ++k) {
            EXPECT_DOUBLE_EQ(dst.data()[k], static_cast<double>(mine[k]));
        }
    });
}

}  // namespace
