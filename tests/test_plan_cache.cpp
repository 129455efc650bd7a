// Pack-plan kernel classification, one compiled plan per type, and the
// persistent-scatter guarantees built on top of them: steady-state
// VecScatter executes through the DatatypeOptimized backend perform no
// engine constructions and no scratch allocations, and the reverse/Add
// execution modes the plans must not break stay correct.
#include <gtest/gtest.h>

#include <vector>

#include "coll/persistent.hpp"
#include "datatype/plan.hpp"
#include "petsckit/scatter.hpp"

namespace {

using namespace nncomm;
using dt::Datatype;
using dt::PackKernel;
using pk::Index;
using pk::IndexSet;
using pk::InsertMode;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;
using rt::Comm;
using rt::World;

// ---------------------------------------------------------------------------
// classification

TEST(PlanClassification, KernelClasses) {
    // Dense tiling: one block per instance, size == extent.
    auto cont = Datatype::contiguous(32, Datatype::float64());
    EXPECT_EQ(cont.plan().kernel(), PackKernel::Contiguous);
    EXPECT_TRUE(cont.plan().specialized());

    // Vector pattern: uniform block length, constant stride.
    auto vec = Datatype::vector(16, 1, 4, Datatype::float64());
    EXPECT_EQ(vec.plan().kernel(), PackKernel::Strided);
    EXPECT_EQ(vec.plan().block_length(), 8u);
    EXPECT_EQ(vec.plan().block_stride(), 32);
    EXPECT_EQ(vec.plan().blocks_per_instance(), 16u);

    // Single block whose extent exceeds its size: the degenerate
    // count-strided case (instances are the strided blocks).
    auto gap = Datatype::resized(Datatype::float64(), 0, 24);
    EXPECT_EQ(gap.plan().kernel(), PackKernel::Strided);
    EXPECT_EQ(gap.plan().block_length(), 8u);

    // Non-arithmetic offsets: no specialized kernel.
    std::vector<std::size_t> lens{1, 1, 1};
    std::vector<std::ptrdiff_t> displs{0, 16, 56};
    auto irr = Datatype::hindexed(lens, displs, Datatype::float64());
    EXPECT_EQ(irr.plan().kernel(), PackKernel::Irregular);
    EXPECT_FALSE(irr.plan().specialized());

    // Uniform blocks with a shorter trailing block (the odd-count vector
    // shape) stay Strided: the vector run covers the uniform prefix and the
    // tail is copied exactly.
    std::vector<std::size_t> mlens{2, 1};
    std::vector<std::ptrdiff_t> mdispls{0, 32};
    auto mixed = Datatype::hindexed(mlens, mdispls, Datatype::float64());
    EXPECT_EQ(mixed.plan().kernel(), PackKernel::Strided);
    EXPECT_EQ(mixed.plan().block_length(), 16u);
    EXPECT_EQ(mixed.plan().tail_length(), 8u);
    EXPECT_EQ(mixed.plan().block_stride(), 32);

    // A trailing block *longer* than the uniform prefix has no vector-run
    // decomposition: irregular.
    std::vector<std::size_t> llens{1, 2};
    std::vector<std::ptrdiff_t> ldispls{0, 32};
    auto longtail = Datatype::hindexed(llens, ldispls, Datatype::float64());
    EXPECT_EQ(longtail.plan().kernel(), PackKernel::Irregular);

    // 2-D nested pattern (the transpose-column / DMDA face shape): uniform
    // inner runs at one stride repeated at a constant outer stride.
    auto elem = Datatype::contiguous(3, Datatype::float64());
    auto col = Datatype::vector(8, 1, 8, elem);
    auto col_resized = Datatype::resized(col, 0, elem.extent());
    auto transpose = Datatype::contiguous(8, col_resized);
    EXPECT_EQ(transpose.plan().kernel(), PackKernel::BlockedStrided);
    EXPECT_TRUE(transpose.plan().specialized());
    EXPECT_EQ(transpose.plan().block_length(), 24u);
    EXPECT_EQ(transpose.plan().inner_blocks(), 8u);
    EXPECT_EQ(transpose.plan().block_stride(), 8 * 24);
    EXPECT_EQ(transpose.plan().outer_stride(), 24);
}

TEST(PlanClassification, TailShapeHashesDistinctFromUniform) {
    // The trailing-short-block layout must not alias the uniform layout:
    // same leading block length and stride, but its own compiled plan with
    // its own tail.
    std::vector<std::size_t> ulens{2, 2};
    std::vector<std::ptrdiff_t> udispls{0, 32};
    auto uniform = Datatype::hindexed(ulens, udispls, Datatype::float64());

    std::vector<std::size_t> tlens{2, 1};
    std::vector<std::ptrdiff_t> tdispls{0, 32};
    auto tail = Datatype::hindexed(tlens, tdispls, Datatype::float64());

    const dt::PackPlan& up = uniform.plan();
    const dt::PackPlan& tp = tail.plan();
    EXPECT_NE(&up, &tp);
    EXPECT_EQ(up.kernel(), PackKernel::Strided);
    EXPECT_EQ(tp.kernel(), PackKernel::Strided);
    EXPECT_EQ(up.block_length(), 16u);
    EXPECT_EQ(tp.block_length(), 16u);
    EXPECT_EQ(up.block_stride(), tp.block_stride());
    EXPECT_EQ(up.tail_length(), 16u);
    EXPECT_EQ(tp.tail_length(), 8u);
    EXPECT_EQ(up.instance_size(), 32u);
    EXPECT_EQ(tp.instance_size(), 24u);
}

TEST(PlanClassification, ConcurrentFirstUseCompilesOnePlan) {
    // Rank threads share the types a plan is built over. Their first
    // plan() calls on one type race to the node's once-flag, and every
    // thread must get the same table and the same plan object. Every type
    // is born flat, so only the plan compiles here: one irregular type and
    // one strided type.
    constexpr int kRanks = 4;
    std::vector<std::size_t> lens{2, 1, 3, 1};
    std::vector<std::ptrdiff_t> displs{0, 40, 88, 200};
    const Datatype irregular = Datatype::hindexed(lens, displs, Datatype::float64());
    const Datatype strided = Datatype::vector(64, 2, 3, Datatype::float64());
    std::vector<const dt::FlatType*> flats(2 * kRanks);
    std::vector<const dt::PackPlan*> plans(2 * kRanks);
    World w(kRanks);
    w.run([&](Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        comm.barrier();
        plans[2 * r] = &irregular.plan();
        flats[2 * r] = &irregular.flat();
        plans[2 * r + 1] = &strided.plan();
        flats[2 * r + 1] = &strided.flat();
    });
    for (std::size_t r = 1; r < kRanks; ++r) {
        EXPECT_EQ(plans[2 * r], plans[0]);
        EXPECT_EQ(flats[2 * r], flats[0]);
        EXPECT_EQ(plans[2 * r + 1], plans[1]);
        EXPECT_EQ(flats[2 * r + 1], flats[1]);
    }
    EXPECT_EQ(plans[0]->kernel(), PackKernel::Irregular);
    EXPECT_EQ(plans[1]->kernel(), PackKernel::Strided);
    EXPECT_EQ(flats[0]->block_count(), 4u);
    EXPECT_EQ(flats[1]->block_count(), 64u);
}

// ---------------------------------------------------------------------------
// persistent scatter: allocation-free steady state

// Stride-2 exchange (the §5.4 shape) on a directly built two-sided plan,
// the transport the DMDA ghost exchange uses: the send type compiles to
// the Strided kernel, so the plan needs no engines at all, and its staging
// slots are allocated once.
TEST(PersistentScatter, StridedSteadyStateBuildsNoEnginesOrScratch) {
    constexpr int kRanks = 4;
    constexpr std::size_t kN = 256;
    World w(kRanks);
    w.run([&](Comm& comm) {
        const int r = comm.rank();
        const auto n = static_cast<std::size_t>(kRanks);
        const auto right = static_cast<std::size_t>((r + 1) % kRanks);
        const auto left = static_cast<std::size_t>((r + kRanks - 1) % kRanks);
        std::vector<double> src(2 * kN), dst(kN, 0.0);
        for (std::size_t i = 0; i < src.size(); ++i) {
            src[i] = static_cast<double>(static_cast<std::size_t>(r) * 2 * kN + i);
        }
        std::vector<std::size_t> scounts(n, 0), rcounts(n, 0);
        std::vector<std::ptrdiff_t> displs(n, 0);
        std::vector<Datatype> stypes(n, Datatype::byte()), rtypes(n, Datatype::byte());
        scounts[right] = 1;
        stypes[right] = Datatype::vector(kN, 1, 2, Datatype::float64());
        rcounts[left] = kN;
        rtypes[left] = Datatype::float64();

        comm.reset_stats();
        coll::AlltoallwPlan plan(comm, scounts, displs, stypes, rcounts, displs, rtypes,
                                 coll::PlanTransport::TwoSided);
        plan.execute(src.data(), dst.data());
        const StatCounters first = plan.counters();
        EXPECT_EQ(first.persistent_executes, 1u);
        EXPECT_EQ(first.engine_builds, 0u);   // strided-specialized
        EXPECT_GT(first.scratch_allocs, 0u);  // plan-time pack buffers
        EXPECT_GT(first.plan_hits, 0u);

        plan.execute(src.data(), dst.data());
        plan.execute(src.data(), dst.data());
        const StatCounters steady = plan.counters();
        EXPECT_EQ(steady.persistent_executes, 3u);
        EXPECT_EQ(steady.engine_builds, first.engine_builds);
        EXPECT_EQ(steady.scratch_allocs, first.scratch_allocs);  // zero new
        EXPECT_GT(steady.plan_hits, first.plan_hits);

        // The Comm saw the same statistics.
        EXPECT_EQ(comm.counters().persistent_executes, 3u);

        // Correctness with fully reused buffers.
        for (std::size_t j = 0; j < kN; ++j) {
            EXPECT_DOUBLE_EQ(dst[j], static_cast<double>(left * 2 * kN + 2 * j));
        }
    });
}

// Jittered offsets: per-peer types are Irregular, so the plan builds one
// persistent engine per peer on the first execute and only resets it
// afterwards.
TEST(PersistentScatter, IrregularSteadyStateReusesEngines) {
    constexpr int kRanks = 4;
    constexpr Index kN = 128;
    World w(kRanks);
    w.run([&](Comm& comm) {
        Vec src(comm, 3 * kN * kRanks);
        Vec dst(comm, kN * kRanks);
        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }

        // Aperiodic hash jitter on a base stride of 3: no constant stride,
        // and no periodic inner run either — a periodic jitter would
        // classify as the BlockedStrided plan kernel and need no engine.
        auto jitter = [](Index j) {
            return static_cast<Index>((static_cast<std::uint64_t>(j) * 2654435761ULL >> 7) % 2);
        };
        std::vector<Index> from, to;
        for (int r = 0; r < kRanks; ++r) {
            for (Index j = 0; j < kN; ++j) {
                from.push_back(r * 3 * kN + 3 * j + jitter(j));
                to.push_back(((r + 1) % kRanks) * kN + j);
            }
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));

        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        const coll::AlltoallwPlan* plan = sc.forward_plan();
        ASSERT_NE(plan, nullptr);
        const StatCounters first = plan->counters();
        EXPECT_GT(first.engine_builds, 0u);  // irregular peers needed engines

        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        const StatCounters steady = plan->counters();
        EXPECT_EQ(steady.persistent_executes, 2u);
        EXPECT_EQ(steady.engine_builds, first.engine_builds);    // reset, not rebuilt
        EXPECT_EQ(steady.scratch_allocs, first.scratch_allocs);  // zero new

        const int prev = (comm.rank() + kRanks - 1) % kRanks;
        for (Index j = 0; j < kN; ++j) {
            const Index off = prev * 3 * kN + 3 * j + jitter(j);
            EXPECT_DOUBLE_EQ(dst.data()[j], static_cast<double>(off));
        }
    });
}

// ---------------------------------------------------------------------------
// reverse and Add modes

TEST(ScatterModes, ReverseInsertAgreesAcrossBackends) {
    constexpr int kRanks = 4;
    constexpr Index kN = 64;
    const Index total = kN * kRanks;
    World w(kRanks);
    w.run([&](Comm& comm) {
        Vec src(comm, total);
        Vec dst(comm, total);
        std::vector<Index> from, to;
        for (Index g = 0; g < total; ++g) {
            from.push_back(g);
            to.push_back((g + kN) % total);  // shift by one rank: all remote
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));

        for (auto backend : {ScatterBackend::HandTuned, ScatterBackend::DatatypeBaseline,
                             ScatterBackend::DatatypeOptimized}) {
            for (Index i = 0; i < src.local_size(); ++i) src.data()[i] = -1.0;
            for (Index i = 0; i < dst.local_size(); ++i) {
                dst.data()[i] = 1000.0 + static_cast<double>(dst.range().begin + i);
            }
            // Run reverse twice: the second pass exercises the persistent
            // reverse plan's buffer reuse on the optimized backend.
            sc.execute_reverse(src, dst, backend);
            sc.execute_reverse(src, dst, backend);
            for (Index i = 0; i < src.local_size(); ++i) {
                const Index g = src.range().begin + i;
                const Index source = (g + kN) % total;
                EXPECT_DOUBLE_EQ(src.data()[i], 1000.0 + static_cast<double>(source))
                    << pk::scatter_backend_name(backend) << " g=" << g;
            }
        }
    });
}

TEST(ScatterModes, ReverseAddAccumulatesOnHandTuned) {
    constexpr int kRanks = 4;
    constexpr Index kN = 64;
    const Index total = kN * kRanks;
    World w(kRanks);
    w.run([&](Comm& comm) {
        Vec src(comm, total);
        Vec dst(comm, total);
        std::vector<Index> from, to;
        for (Index g = 0; g < total; ++g) {
            from.push_back(g);
            to.push_back((g + kN) % total);
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));

        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }
        for (Index i = 0; i < dst.local_size(); ++i) {
            dst.data()[i] = 1000.0 + static_cast<double>(dst.range().begin + i);
        }

        // Two accumulating reverse passes: src[g] += dst[(g+kN) % total],
        // twice (the ghost-contribution push-back pattern).
        sc.execute_reverse(src, dst, ScatterBackend::HandTuned, InsertMode::Add);
        sc.execute_reverse(src, dst, ScatterBackend::HandTuned, InsertMode::Add);
        for (Index i = 0; i < src.local_size(); ++i) {
            const Index g = src.range().begin + i;
            const double contrib = 1000.0 + static_cast<double>((g + kN) % total);
            EXPECT_DOUBLE_EQ(src.data()[i], static_cast<double>(g) + 2.0 * contrib);
        }

        // Forward Add accumulates into dst as well.
        for (Index i = 0; i < dst.local_size(); ++i) dst.data()[i] = 0.5;
        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }
        sc.execute(src, dst, ScatterBackend::HandTuned, InsertMode::Add);
        for (Index i = 0; i < dst.local_size(); ++i) {
            const Index g = dst.range().begin + i;
            const Index source = (g + total - kN) % total;
            EXPECT_DOUBLE_EQ(dst.data()[i], 0.5 + static_cast<double>(source));
        }
    });
}

// Add mode on a datatype backend must be rejected (as in PETSc).
TEST(ScatterModes, AddRequiresHandTuned) {
    World w(2);
    w.run([&](Comm& comm) {
        Vec src(comm, 8), dst(comm, 8);
        std::vector<Index> from{0, 1}, to{4, 5};
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));
        EXPECT_THROW(sc.execute(src, dst, ScatterBackend::DatatypeOptimized, InsertMode::Add),
                     Error);
    });
}

}  // namespace
