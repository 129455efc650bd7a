// End-to-end benchmark: one workload on the real threaded runtime.
//
// Runs mg3d, scatter16 or remap (see README.md for why each exists) on
// min(4, nproc) rank threads of a single rt::World and prints the raw
// measurements -- per-step wall times, set-up times, verification results,
// per-step counter deltas -- as one JSON object on the last line of stdout.
// run.py builds this program, runs it and turns the raw numbers into the
// benchmark's metrics.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--corrupt]
//
// Every step is collective and the next one starts when the previous one
// has completed on every rank (a closed loop). A step's wall time runs from
// the first rank entering it to the last rank leaving it. With --trace 1 the
// timed phase is split: the first half runs untraced, the second records
// spans around every library call this file makes (name, start, end,
// parent, step) plus Comm counter deltas around each step; a short traced
// pass of the other workloads and a few isolated probes follow. Spans stay
// in memory and are written to --trace-out as Chrome trace-event JSON at
// exit. --corrupt perturbs one verified output once, so the run must fail.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coll/collectives.hpp"
#include "core/rng.hpp"
#include "datatype/datatype.hpp"
#include "datatype/plan.hpp"
#include "datatype/simd.hpp"
#include "petsckit/laplacian.hpp"
#include "petsckit/mg.hpp"
#include "petsckit/scatter.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nncomm;
using pk::Index;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}
double seconds_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) * 1e-9; }

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corrupt = false;
    std::string trace_out;
};

// Set by --corrupt; the first verification on rank 0 consumes it.
std::atomic<bool> g_corrupt{false};
bool take_corruption(int rank) { return rank == 0 && g_corrupt.exchange(false); }

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Tracing: spans around this file's calls into the library, kept per rank.

struct Span {
    const char* name;
    const char* role;   ///< "build" / "first_exec" on set-up spans, else ""
    const char* phase;  ///< workload pass ("mg3d", "probe:remap", "serial", ...)
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 for a root span
    std::int64_t step;
    std::int64_t t0, t1;
};

class Tracer {
public:
    explicit Tracer(int rank) : next_id_((static_cast<std::uint64_t>(rank) + 1) << 40) {}

    bool on = false;
    const char* phase = "";
    std::int64_t step = -1;
    std::vector<Span> spans;

    std::size_t open(const char* name, const char* role) {
        const std::uint64_t parent = open_.empty() ? 0 : spans[open_.back()].id;
        spans.push_back(Span{name, role, phase, next_id_++, parent, step, now_ns(), 0});
        open_.push_back(spans.size() - 1);
        return spans.size() - 1;
    }
    void close(std::size_t at) {
        spans[at].t1 = now_ns();
        open_.pop_back();
    }

private:
    std::uint64_t next_id_;
    std::vector<std::size_t> open_;
};

class SpanScope {
public:
    SpanScope(Tracer& t, const char* name, const char* role = "") : t_(t.on ? &t : nullptr) {
        if (t_) at_ = t_->open(name, role);
    }
    ~SpanScope() {
        if (t_) t_->close(at_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer* t_;
    std::size_t at_ = 0;
};

// ---------------------------------------------------------------------------
// Counter deltas: the public Comm::counters()/timers() fields run.py reports.

struct Field {
    const char* name;
    std::uint64_t StatCounters::*member;
};
constexpr Field kFields[] = {
    {"coll_schedules_built", &StatCounters::coll_schedules_built},
    {"coll_schedule_cache_hits", &StatCounters::coll_schedule_cache_hits},
    {"coll_rounds_executed", &StatCounters::coll_rounds_executed},
    {"coll_rma_plan_executes", &StatCounters::coll_rma_plan_executes},
    {"rt_lane_fast_deliveries", &StatCounters::rt_lane_fast_deliveries},
    {"rt_lane_overflow_deliveries", &StatCounters::rt_lane_overflow_deliveries},
    {"rt_zero_copy_msgs", &StatCounters::rt_zero_copy_msgs},
    {"rt_bytes_copied", &StatCounters::rt_bytes_copied},
    {"rt_rma_puts", &StatCounters::rt_rma_puts},
    {"rt_rma_fences", &StatCounters::rt_rma_fences},
    {"rt_cv_waits", &StatCounters::rt_cv_waits},
    {"rt_lock_acquisitions", &StatCounters::rt_lock_acquisitions},
    {"rt_payload_allocs", &StatCounters::rt_payload_allocs},
    {"rt_pool_hits", &StatCounters::rt_pool_hits},
    {"rt_pool_misses", &StatCounters::rt_pool_misses},
    {"rt_proto_eager_chosen", &StatCounters::rt_proto_eager_chosen},
    {"rt_proto_rdzv_chosen", &StatCounters::rt_proto_rdzv_chosen},
    {"rt_sparse_probe_polls", &StatCounters::rt_sparse_probe_polls},
    {"rt_sparse_msgs_recvd", &StatCounters::rt_sparse_msgs_recvd},
    {"bytes_packed", &StatCounters::bytes_packed},
    {"dt_simd_pack_bytes", &StatCounters::dt_simd_pack_bytes},
    {"plan_hits", &StatCounters::plan_hits},
    {"plan_compiles", &StatCounters::plan_compiles},
    {"engine_builds", &StatCounters::engine_builds},
};
// Indexed by dt::PackKernel.
constexpr const char* kDispatchNames[] = {"dt_dispatch_contiguous", "dt_dispatch_strided",
                                          "dt_dispatch_blocked", "dt_dispatch_irregular"};
constexpr Phase kTimerPhases[] = {Phase::Comm, Phase::Pack, Phase::Search};
constexpr const char* kTimerNames[] = {"comm_ns", "pack_ns", "search_ns"};

constexpr std::size_t kNumFields = std::size(kFields);
constexpr std::size_t kNumCounters =
    kNumFields + std::size(kDispatchNames) + std::size(kTimerNames);
using Snapshot = std::array<std::uint64_t, kNumCounters>;

const char* counter_name(std::size_t i) {
    if (i < kNumFields) return kFields[i].name;
    i -= kNumFields;
    if (i < std::size(kDispatchNames)) return kDispatchNames[i];
    return kTimerNames[i - std::size(kDispatchNames)];
}

Snapshot snapshot(const rt::Comm& comm) {
    Snapshot s{};
    const StatCounters& c = comm.counters();
    std::size_t at = 0;
    for (const Field& f : kFields) s[at++] = c.*(f.member);
    for (std::uint64_t d : c.dt_kernel_dispatch) s[at++] = d;
    for (Phase p : kTimerPhases) s[at++] = comm.timers().ns(p);
    return s;
}

// ---------------------------------------------------------------------------
// Per-rank state. Each rank thread writes only its own entry; the main
// thread reads them after World::run has joined.

struct StepLog {
    std::vector<std::int64_t> t0, t1;       ///< per step
    std::vector<std::int64_t> b0, b1;       ///< per batch
    std::vector<std::size_t> batch_steps;   ///< steps in each batch
    void clear() { *this = StepLog{}; }
};

struct RankState {
    explicit RankState(int rank) : tracer(rank) {}
    Tracer tracer;
    StepLog log;               ///< the phase being run
    StepLog untraced, traced;  ///< the timed phases, kept for the main thread
    std::vector<std::int64_t> setup_t0, setup_t1;  ///< per set-up repetition
    bool logging = false;   ///< record steps into `log`
    bool counting = false;  ///< accumulate counter deltas around steps
    Snapshot before{};
    Snapshot totals{};
    std::uint64_t counted_steps = 0;
};

/// Brackets one step: cross-rank wall-time stamps, the root span and, when
/// counting, the counter delta. The snapshots sit outside the timestamps.
class StepScope {
public:
    StepScope(rt::Comm& comm, RankState& rs)
        : comm_(comm), rs_(rs), enabled_(rs.logging) {
        if (!enabled_) return;
        ++rs_.tracer.step;
        if (rs_.counting) rs_.before = snapshot(comm_);
        rs_.log.t0.push_back(now_ns());
        if (rs_.tracer.on) span_ = rs_.tracer.open("bench:step", "");
    }
    ~StepScope() {
        if (!enabled_) return;
        if (rs_.tracer.on) rs_.tracer.close(span_);
        rs_.log.t1.push_back(now_ns());
        if (rs_.counting) {
            const Snapshot after = snapshot(comm_);
            for (std::size_t i = 0; i < kNumCounters; ++i) {
                rs_.totals[i] += after[i] - rs_.before[i];
            }
            ++rs_.counted_steps;
        }
    }
    StepScope(const StepScope&) = delete;
    StepScope& operator=(const StepScope&) = delete;

private:
    rt::Comm& comm_;
    RankState& rs_;
    bool enabled_;
    std::size_t span_ = 0;
};

struct Batch {
    std::size_t steps = 0;
    bool ok = true;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Untimed, once: derives the seeded inputs, allocates the vectors and
    /// computes any reference result.
    virtual void prepare(rt::Comm& comm, RankState& rs) = 0;
    /// Untimed, before every build: releases the previous build's objects,
    /// so peak_rss_mb counts one live instance, and generates the inputs
    /// the build consumes, so setup_s times only the library.
    virtual void stage(rt::Comm& comm) = 0;
    /// Timed as setup_s: builds the workload's objects and runs their first
    /// step (which compiles the persistent plans).
    virtual void build(rt::Comm& comm, RankState& rs) = 0;
    /// Untimed: checks the output of the first step of the last build.
    virtual bool verify_build(rt::Comm& comm) = 0;
    /// One unit of the timed phase; every step in it is verified.
    virtual Batch batch(rt::Comm& comm, RankState& rs) = 0;
    /// True when run_s is the batch's own wall time (mg3d: time to
    /// solution), false when it is the sum of its step times.
    virtual bool run_is_batch_wall() const { return false; }
};

void begin_batch(RankState& rs) {
    if (rs.logging) rs.log.b0.push_back(now_ns());
}
void end_batch(RankState& rs, std::size_t steps) {
    if (!rs.logging) return;
    rs.log.b1.push_back(now_ns());
    rs.log.batch_steps.push_back(steps);
}

bool bits_equal(const pk::Vec& a, const pk::Vec& b) {
    return a.local_size() == b.local_size() &&
           std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.local_size()) * 8) == 0;
}

// ---------------------------------------------------------------------------
// mg3d: the §5.5 application -- 3-D Laplacian, 65^3 grid, 4-level V-cycles.

class Mg3d final : public Workload {
public:
    static constexpr pk::GridSize kGrid{65, 65, 65};
    static constexpr double kRtol = 1e-8;
    static constexpr int kMaxCycles = 50;

    explicit Mg3d(std::uint64_t seed) : seed_(seed) {}

    static pk::MGConfig config(pk::ScatterBackend backend) {
        pk::MGConfig cfg;
        cfg.levels = 4;
        cfg.pre_smooth = 2;
        cfg.post_smooth = 2;
        cfg.smoother = pk::Smoother::Jacobi;
        cfg.scatter_backend = backend;
        cfg.coll.alltoallw_algo = coll::AlltoallwAlgo::Binned;
        return cfg;
    }

    /// Constant right-hand side scaled pointwise by a seeded factor in
    /// [0.5, 1.5) keyed by global index (boundary rows stay zero).
    static void seeded_rhs(const pk::DMDA& da, pk::Vec& b, std::uint64_t seed) {
        pk::fill_rhs_constant(da, b);
        const Index begin = b.range().begin;
        for (Index i = 0; i < b.local_size(); ++i) {
            const std::uint64_t h = mix(seed, static_cast<std::uint64_t>(begin + i));
            b.data()[i] *= 0.5 + static_cast<double>(h >> 11) * 0x1.0p-53;
        }
    }

    bool run_is_batch_wall() const override { return true; }

    void prepare(rt::Comm& comm, RankState& rs) override {
        comm.set_engine(dt::EngineKind::DualContext);
        pk::MGSolver ref(comm, 3, kGrid, config(pk::ScatterBackend::HandTuned));
        b_ = ref.fine_dmda().create_global();
        seeded_rhs(ref.fine_dmda(), b_, seed_);
        x_ = b_.clone_empty();
        x_ref_ = b_.clone_empty();
        r_ = b_.clone_empty();
        ax_ = b_.clone_empty();
        ref_cycles_ = solve(comm, ref, x_ref_, rs, false);
        first_ref_ = b_.clone_empty();
        ref.v_cycle(b_, first_ref_);
    }

    void stage(rt::Comm&) override {
        mg_.reset();
        x_.zero();
    }

    void build(rt::Comm& comm, RankState& rs) override {
        {
            SpanScope s(rs.tracer, "petsckit:MGSolver::MGSolver", "build");
            mg_ = std::make_unique<pk::MGSolver>(comm, 3, kGrid,
                                                 config(pk::ScatterBackend::DatatypeOptimized));
        }
        SpanScope s(rs.tracer, "petsckit:MGSolver::v_cycle", "first_exec");
        mg_->v_cycle(b_, x_);
    }

    /// The first V-cycle from a zero guess matches the reference's bit for bit.
    bool verify_build(rt::Comm&) override { return bits_equal(x_, first_ref_); }

    Batch batch(rt::Comm& comm, RankState& rs) override {
        begin_batch(rs);
        const int cycles = solve(comm, *mg_, x_, rs, true);
        end_batch(rs, static_cast<std::size_t>(std::min(cycles, kMaxCycles)));
        if (take_corruption(comm.rank())) x_.data()[x_.local_size() / 2] += 1.0;
        return Batch{static_cast<std::size_t>(cycles),
                     cycles == ref_cycles_ && bits_equal(x_, x_ref_)};
    }

private:
    /// MGSolver::solve's loop, opened up so each V-cycle is one step. A
    /// run that does not converge reports kMaxCycles + 1 cycles, which
    /// never matches the reference.
    int solve(rt::Comm& comm, pk::MGSolver& mg, pk::Vec& x, RankState& rs, bool steps) {
        x.zero();
        const pk::LaplacianOp& a = mg.fine_op();
        a.apply(x, ax_);
        r_.waxpy_diff(b_, ax_);
        const double r0 = r_.norm2();
        for (int it = 1; it <= kMaxCycles; ++it) {
            if (steps) {
                StepScope step(comm, rs);
                SpanScope s(rs.tracer, "petsckit:MGSolver::v_cycle");
                mg.v_cycle(b_, x);
            } else {
                mg.v_cycle(b_, x);
            }
            double res = 0.0;
            {
                SpanScope s(rs.tracer, "bench:residual");
                {
                    SpanScope s2(rs.tracer, "petsckit:LaplacianOp::apply");
                    a.apply(x, ax_);
                }
                r_.waxpy_diff(b_, ax_);
                {
                    SpanScope s2(rs.tracer, "petsckit:Vec::norm2");
                    res = r_.norm2();
                }
                if (rs.tracer.on) ghost_probe(mg, x, rs);
            }
            if (res <= kRtol * r0) return it;
        }
        return kMaxCycles + 1;
    }

    /// The fine-grid ghost exchange LaplacianOp::apply performs, called on
    /// its own so its begin/wait split is visible.
    void ghost_probe(const pk::MGSolver& mg, const pk::Vec& x, RankState& rs) {
        const pk::DMDA& da = mg.fine_dmda();
        if (ghosted_.size() != static_cast<std::size_t>(da.ghosted().volume())) {
            ghosted_ = da.create_local();
        }
        coll::CollRequest req;
        {
            SpanScope s(rs.tracer, "coll:DMDA::global_to_local_begin");
            req = da.global_to_local_begin(x, ghosted_, mg.config().coll);
        }
        SpanScope s(rs.tracer, "coll:DMDA::global_to_local_end");
        pk::DMDA::global_to_local_end(req);
    }

    std::uint64_t seed_;
    std::unique_ptr<pk::MGSolver> mg_;
    pk::Vec b_, x_, x_ref_, first_ref_, r_, ax_;
    std::vector<double> ghosted_;
    int ref_cycles_ = 0;
};

// ---------------------------------------------------------------------------
// scatter16: Fig. 16's worst case -- every rank sends its stride-2 doubles
// to one peer (a seeded derangement); all other peers get zero bytes.

class Scatter16 final : public Workload {
public:
    static constexpr Index kPer = 65536;  ///< doubles each rank sends
    static constexpr std::size_t kBatch = 100;

    explicit Scatter16(std::uint64_t seed) : seed_(seed) {}

    void prepare(rt::Comm& comm, RankState&) override {
        const int n = comm.size();
        perm_.resize(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) perm_[static_cast<std::size_t>(r)] = r;
        Rng rng(mix(seed_, 16));
        // Rejection-sampled shuffle until no rank maps to itself.
        for (bool fixed = n > 1; fixed;) {
            for (int i = n - 1; i > 0; --i) {
                const auto j =
                    static_cast<std::size_t>(rng.uniform_u64(0, static_cast<std::uint64_t>(i)));
                std::swap(perm_[static_cast<std::size_t>(i)], perm_[j]);
            }
            fixed = false;
            for (int r = 0; r < n; ++r) fixed = fixed || perm_[static_cast<std::size_t>(r)] == r;
        }
        for (int r = 0; r < n; ++r) {
            if (perm_[static_cast<std::size_t>(r)] == comm.rank()) sender_ = r;
        }
        src_ = pk::Vec(comm, 2 * kPer * n);
        back_ = pk::Vec(comm, 2 * kPer * n);
        dst_ = pk::Vec(comm, kPer * n);
    }

    /// Generates the replicated index lists VecScatter's constructor takes
    /// (every rank lists every transfer).
    void stage(rt::Comm& comm) override {
        sc_.reset();
        const int n = comm.size();
        from_.clear();
        to_.clear();
        from_.reserve(static_cast<std::size_t>(kPer * n));
        to_.reserve(static_cast<std::size_t>(kPer * n));
        for (int r = 0; r < n; ++r) {
            for (Index j = 0; j < kPer; ++j) {
                from_.push_back(r * 2 * kPer + 2 * j);
                to_.push_back(perm_[static_cast<std::size_t>(r)] * kPer + j);
            }
        }
        ready(comm);
    }

    void build(rt::Comm& comm, RankState& rs) override {
        {
            SpanScope s(rs.tracer, "petsckit:VecScatter::VecScatter", "build");
            sc_ = std::make_unique<pk::VecScatter>(src_, pk::IndexSet::general(std::move(from_)),
                                                   dst_, pk::IndexSet::general(std::move(to_)));
        }
        execute(comm, rs, "first_exec");
    }

    bool verify_build(rt::Comm& comm) override { return verify(comm); }

    Batch batch(rt::Comm& comm, RankState& rs) override {
        begin_batch(rs);
        Batch b{kBatch, true};
        for (std::size_t i = 0; i < kBatch; ++i) {
            ready(comm);
            comm.barrier();
            execute(comm, rs, "");
            b.ok = verify(comm) && b.ok;
        }
        end_batch(rs, kBatch);
        return b;
    }

private:
    /// Exact in double: global indices stay below 2^53.
    double value(Index g) const {
        return static_cast<double>(g) + 0.5 * static_cast<double>(stamp_);
    }

    /// Fresh source values for the next step, so a stale transfer fails.
    void ready(rt::Comm& comm) {
        stamp_ = stamp_ % 1000 + 1;
        const Index base = comm.rank() * 2 * kPer;
        for (Index j = 0; j < kPer; ++j) src_.data()[2 * j] = value(base + 2 * j);
    }

    /// One step: forward then reverse execute. The reverse lands in a second
    /// vector, so a missing transfer in either direction cannot pass.
    void execute(rt::Comm& comm, RankState& rs, const char* role) {
        StepScope step(comm, rs);
        SpanScope fe(rs.tracer, "bench:forward_reverse", role);
        pk::ScatterRequest req;
        {
            SpanScope s(rs.tracer, "petsckit:VecScatter::begin");
            req = sc_->begin(src_, dst_, pk::ScatterBackend::DatatypeOptimized);
        }
        {
            SpanScope s(rs.tracer, "petsckit:ScatterRequest::end");
            req.end();
        }
        {
            SpanScope s(rs.tracer, "petsckit:VecScatter::begin_reverse");
            req = sc_->begin_reverse(back_, dst_, pk::ScatterBackend::DatatypeOptimized);
        }
        SpanScope s(rs.tracer, "petsckit:ScatterRequest::end");
        req.end();
    }

    bool verify(rt::Comm& comm) {
        if (take_corruption(comm.rank())) dst_.data()[kPer / 3] += 1.0;
        bool ok = true;
        const Index base = comm.rank() * 2 * kPer;
        const Index from = sender_ * 2 * kPer;
        for (Index j = 0; j < kPer; ++j) {
            ok = ok && dst_.data()[j] == value(from + 2 * j) &&
                 back_.data()[2 * j] == value(base + 2 * j);
        }
        return ok;
    }

    std::uint64_t seed_;
    std::vector<int> perm_;
    int sender_ = 0;
    std::uint64_t stamp_ = 0;
    pk::Vec src_, dst_, back_;
    std::vector<Index> from_, to_;  ///< staged for the next build
    std::unique_ptr<pk::VecScatter> sc_;
};

// ---------------------------------------------------------------------------
// remap: a changing pattern (AMR regrid, off-process assembly). Every step
// draws fresh needed indices, builds a sparse-discovery gather, executes it
// once, and discards it.

class Remap final : public Workload {
public:
    static constexpr Index kSrcPer = Index{1} << 18;  ///< source doubles per rank
    static constexpr Index kNeed = 16384;             ///< indices each rank reads
    static constexpr std::size_t kBatch = 20;

    explicit Remap(std::uint64_t seed) : seed_(seed) {}

    void prepare(rt::Comm& comm, RankState&) override {
        const int n = comm.size();
        src_ = pk::Vec(comm, kSrcPer * n);
        dst_ = pk::Vec(comm, kNeed * n);
        const Index begin = src_.range().begin;
        for (Index i = 0; i < src_.local_size(); ++i) src_.data()[i] = value(begin + i);
    }

    void stage(rt::Comm& comm) override { ready(comm); }

    /// Set-up here is one step: the scatter never outlives it.
    void build(rt::Comm& comm, RankState& rs) override { execute(comm, rs); }

    bool verify_build(rt::Comm& comm) override { return verify(comm); }

    Batch batch(rt::Comm& comm, RankState& rs) override {
        begin_batch(rs);
        Batch b{kBatch, true};
        for (std::size_t i = 0; i < kBatch; ++i) {
            ready(comm);
            comm.barrier();
            execute(comm, rs);
            b.ok = verify(comm) && b.ok;
        }
        end_batch(rs, kBatch);
        return b;
    }

private:
    double value(Index g) const {
        return static_cast<double>(mix(seed_, static_cast<std::uint64_t>(g)) % 1000003) + 0.125;
    }

    /// Runs of random length at random places, on a random subset of owner
    /// ranks (so some peers get zero): each run is contiguous, constant
    /// stride 2..4, or irregular gaps of 1..9.
    void draw_needs(int rank, int n) {
        Rng rng(mix(mix(seed_, step_), static_cast<std::uint64_t>(rank)));
        std::vector<int> owners;
        for (int q = 0; q < n; ++q) {
            if (rng.bernoulli(0.5)) owners.push_back(q);
        }
        if (owners.empty()) {
            owners.push_back(static_cast<int>(rng.uniform_i64(0, n - 1)));
        }
        needs_.clear();
        while (static_cast<Index>(needs_.size()) < kNeed) {
            const int q = owners[rng.uniform_u64(0, owners.size() - 1)];
            const Index end = (q + 1) * kSrcPer;
            Index g = q * kSrcPer + rng.uniform_i64(0, kSrcPer - 1);
            const std::int64_t len = rng.uniform_i64(1, 64);
            const int kind = static_cast<int>(rng.uniform_u64(0, 2));
            const Index stride = rng.uniform_i64(2, 4);
            for (std::int64_t l = 0;
                 l < len && g < end && static_cast<Index>(needs_.size()) < kNeed; ++l) {
                needs_.push_back(g);
                g += kind == 0 ? 1 : kind == 1 ? stride : rng.uniform_i64(1, 9);
            }
        }
    }

    /// Fresh needed indices for the next step; slots reset to NaN.
    void ready(rt::Comm& comm) {
        ++step_;
        draw_needs(comm.rank(), comm.size());
        dst_.set_all(std::numeric_limits<double>::quiet_NaN());
    }

    void execute(rt::Comm& comm, RankState& rs) {
        StepScope step(comm, rs);
        std::optional<pk::VecScatter> vs;
        {
            SpanScope s(rs.tracer, "petsckit:VecScatter::gather_sparse", "build");
            vs.emplace(pk::VecScatter::gather_sparse(comm, src_.layout(), needs_, dst_.layout()));
        }
        SpanScope fe(rs.tracer, "bench:first_exec", "first_exec");
        pk::ScatterRequest req;
        {
            SpanScope s(rs.tracer, "petsckit:VecScatter::begin");
            req = vs->begin(src_, dst_, pk::ScatterBackend::DatatypeOptimized);
        }
        SpanScope s(rs.tracer, "petsckit:ScatterRequest::end");
        req.end();
    }

    bool verify(rt::Comm& comm) {
        if (take_corruption(comm.rank())) dst_.data()[kNeed / 2] += 1.0;
        bool ok = true;
        for (Index k = 0; k < kNeed; ++k) {
            ok = ok && dst_.data()[k] == value(needs_[static_cast<std::size_t>(k)]);
        }
        return ok;
    }

    std::uint64_t seed_;
    std::uint64_t step_ = 0;
    std::vector<Index> needs_;
    pk::Vec src_, dst_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "mg3d") return std::make_unique<Mg3d>(seed);
    if (name == "scatter16") return std::make_unique<Scatter16>(seed);
    if (name == "remap") return std::make_unique<Remap>(seed);
    return nullptr;
}

constexpr const char* kWorkloads[] = {"mg3d", "scatter16", "remap"};
// setup_s is the median of the set-up repetitions: at least kMinSetupReps
// and until kSetupSeconds have passed (remap's ~4 ms set-up gets hundreds).
constexpr std::size_t kMinSetupReps = 21;
constexpr std::size_t kMaxSetupReps = 401;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMaxTracedSteps = 1500;  ///< keeps the in-memory span log small

// ---------------------------------------------------------------------------
// Run phases.

struct Shared {
    Options opt;
    std::vector<RankState> ranks;
    // Written by rank 0 only.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::size_t warmup_batches = 0;
    bool warmup_settled = false;
    std::int64_t cold[4] = {0, 0, 0, 0};  ///< prepare start, build start, batch start, end
    bool run_is_batch_wall = false;
};

const char* probe_phase(const std::string& workload) {
    if (workload == "mg3d") return "probe:mg3d";
    if (workload == "scatter16") return "probe:scatter16";
    return "probe:remap";
}

/// Agrees across ranks on (any rank failed, rank 0 wants to stop).
std::pair<bool, bool> agree(rt::Comm& comm, bool failed, bool stop) {
    int flags[2] = {failed ? 1 : 0, stop ? 1 : 0};
    coll::allreduce(comm, flags, 2, coll::ReduceOp::Max);
    return {flags[0] != 0, flags[1] != 0};
}

void account(rt::Comm& comm, Shared& sh, std::size_t steps, bool failed) {
    if (comm.rank() != 0) return;
    sh.attempted += steps;
    if (failed) sh.failed += steps;
}

double median_step_ms(const StepLog& log, std::size_t from) {
    std::vector<double> v;
    for (std::size_t i = from; i < log.t0.size(); ++i) {
        v.push_back(static_cast<double>(log.t1[i] - log.t0[i]) * 1e-6);
    }
    if (v.empty()) return 0.0;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
}

/// Runs batches until rank 0 has spent `seconds` or `max_steps` steps.
void timed_phase(rt::Comm& comm, Shared& sh, Workload& wl, RankState& rs, double seconds,
                 std::size_t max_steps) {
    rs.log.clear();
    rs.logging = true;
    const std::int64_t start = now_ns();
    std::size_t steps = 0;
    for (;;) {
        const Batch b = wl.batch(comm, rs);
        steps += b.steps;
        const bool done = seconds_between(start, now_ns()) >= seconds || steps >= max_steps;
        const auto [failed, stop] = agree(comm, !b.ok, comm.rank() == 0 && done);
        account(comm, sh, b.steps, failed);
        if (stop) break;
    }
    rs.logging = false;
}

void drive(rt::Comm& comm, Shared& sh) {
    RankState& rs = sh.ranks[static_cast<std::size_t>(comm.rank())];
    const bool root = comm.rank() == 0;
    const Options& opt = sh.opt;
    std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed);
    rs.tracer.phase = kWorkloads[0];
    for (const char* w : kWorkloads) {
        if (opt.workload == w) rs.tracer.phase = w;
    }

    // Cold start: the first prepare, build and batch of a fresh process.
    if (root) sh.cold[0] = now_ns();
    wl->prepare(comm, rs);
    wl->stage(comm);
    if (root) sh.cold[1] = now_ns();
    wl->build(comm, rs);
    if (root) sh.cold[2] = now_ns();
    bool ok = wl->verify_build(comm);
    Batch b = wl->batch(comm, rs);
    if (root) sh.cold[3] = now_ns();
    account(comm, sh, b.steps + 1, agree(comm, !(ok && b.ok), false).first);

    // Warm-up: untimed batches in windows of at least 0.5 s until two
    // consecutive windows' median step times agree within 3%. A host that
    // sat idle runs slow for its first seconds, so this lasts at least 2 s
    // (and at most 3 s + 30% of the timed phase).
    rs.log.clear();
    rs.logging = true;
    const std::int64_t warm_start = now_ns();
    const double warm_budget = 3.0 + 0.3 * opt.seconds;
    std::int64_t window_start = warm_start;
    std::size_t window_from = 0;
    double prev = -1.0;
    for (std::size_t k = 0;; ++k) {
        b = wl->batch(comm, rs);
        const std::int64_t now = now_ns();
        bool settled = false;
        if (seconds_between(window_start, now) >= 0.5) {
            const double med = median_step_ms(rs.log, window_from);
            settled = prev > 0.0 && std::abs(med / prev - 1.0) < 0.03 &&
                      seconds_between(warm_start, now) >= 2.0;
            prev = med;
            window_start = now;
            window_from = rs.log.t0.size();
        }
        const bool out_of_time = seconds_between(warm_start, now) >= warm_budget;
        const auto [failed, stop] = agree(comm, !b.ok, root && (settled || out_of_time));
        account(comm, sh, b.steps, failed);
        if (stop) {
            if (root) {
                sh.warmup_batches = k + 1;
                sh.warmup_settled = settled;
            }
            break;
        }
    }
    rs.logging = false;

    // Set-up time in the warmed process: rebuild the objects repeatedly.
    // Only build() lies between the stamps; staging and checks do not.
    rs.tracer.on = opt.trace;
    const std::int64_t setup_start = now_ns();
    for (std::size_t i = 1;; ++i) {
        wl->stage(comm);
        comm.barrier();
        rs.setup_t0.push_back(now_ns());
        wl->build(comm, rs);
        rs.setup_t1.push_back(now_ns());
        ok = wl->verify_build(comm);
        const bool done =
            i >= kMaxSetupReps ||
            (i >= kMinSetupReps && seconds_between(setup_start, now_ns()) >= kSetupSeconds);
        const auto [failed, stop] = agree(comm, !ok, root && done);
        account(comm, sh, 1, failed);
        if (stop) break;
    }
    rs.tracer.on = false;

    constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
    if (!opt.trace) {
        timed_phase(comm, sh, *wl, rs, opt.seconds, kUnlimited);
        rs.untraced = std::move(rs.log);
        return;
    }

    // Traced run: untraced half, then the traced half with counter deltas.
    timed_phase(comm, sh, *wl, rs, opt.seconds / 2, kUnlimited);
    rs.untraced = std::move(rs.log);
    rs.tracer.on = true;
    rs.counting = true;
    timed_phase(comm, sh, *wl, rs, opt.seconds / 2, kMaxTracedSteps);
    rs.counting = false;
    rs.traced = std::move(rs.log);

    // Short traced passes of the other workloads, so every per-layer span
    // metric has a value on every workload (run.py marks these as probes).
    for (const char* other : kWorkloads) {
        if (opt.workload == other) continue;
        rs.tracer.phase = probe_phase(other);
        std::unique_ptr<Workload> p = make_workload(other, opt.seed);
        rs.tracer.on = false;
        p->prepare(comm, rs);
        p->stage(comm);
        rs.tracer.on = true;
        p->build(comm, rs);
        ok = p->verify_build(comm);
        rs.logging = true;
        b = p->batch(comm, rs);
        rs.logging = false;
        rs.log.clear();
        account(comm, sh, b.steps + 1, agree(comm, !(ok && b.ok), false).first);
    }

    // The synchronisation floor: a barrier on its own.
    rs.tracer.phase = "probe:barrier";
    for (int i = 0; i < 200; ++i) {
        SpanScope s(rs.tracer, "runtime:Comm::barrier");
        comm.barrier();
    }
    rs.tracer.on = false;
}

// ---------------------------------------------------------------------------
// Isolated probes (main thread, no rank threads running).

/// Cache-resident copy rate: 256 KiB memcpy, median of 9 repetitions.
/// A host-drift indicator, not a DRAM bandwidth figure.
double copy_gbps() {
    constexpr std::size_t kBytes = 256 * 1024;
    constexpr int kCopies = 256;
    std::vector<std::byte> a(kBytes, std::byte{1}), b(kBytes);
    std::vector<double> rates;
    volatile std::byte sink{};
    for (int rep = 0; rep < 10; ++rep) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < kCopies; ++i) {
            std::memcpy(i % 2 ? a.data() : b.data(), i % 2 ? b.data() : a.data(), kBytes);
        }
        const std::int64_t t1 = now_ns();
        sink = b[static_cast<std::size_t>(rep)];
        if (rep > 0) {
            rates.push_back(static_cast<double>(kBytes) * kCopies / static_cast<double>(t1 - t0));
        }
    }
    (void)sink;
    std::nth_element(rates.begin(), rates.begin() + 4, rates.end());
    return rates[4];
}

/// Isolated pack of the scatter16 send layout (65536 doubles at stride 2)
/// through its compiled plan. Bytes are computed from the layout.
double pack_gbps() {
    const dt::Datatype type = dt::Datatype::vector(Scatter16::kPer, 1, 2, dt::Datatype::float64());
    const dt::PackPlan& plan = type.plan();
    const dt::FlatType& flat = type.flat();
    std::vector<double> src(2 * Scatter16::kPer, 1.0);
    std::vector<std::byte> out(type.size());
    const auto* base = reinterpret_cast<const std::byte*>(src.data());
    std::vector<double> rates;
    for (int rep = 0; rep < 220; ++rep) {
        const std::int64_t t0 = now_ns();
        plan.pack(flat, base, 1, out);
        const std::int64_t t1 = now_ns();
        if (rep >= 20) {
            rates.push_back(static_cast<double>(out.size()) / static_cast<double>(t1 - t0));
        }
    }
    std::nth_element(rates.begin(), rates.begin() + 100, rates.end());
    return rates[100];
}

/// The mg3d problem on one rank: a bound on what any communication change
/// can save on mg3d.
void serial_probe(const Options& opt, Tracer& tracer) {
    rt::World world(1);
    world.run([&](rt::Comm& comm) {
        pk::MGSolver mg(comm, 3, Mg3d::kGrid, Mg3d::config(pk::ScatterBackend::DatatypeOptimized));
        pk::Vec b = mg.fine_dmda().create_global();
        Mg3d::seeded_rhs(mg.fine_dmda(), b, opt.seed);
        pk::Vec x = b.clone_empty();
        for (int i = 0; i < 2; ++i) mg.v_cycle(b, x);
        tracer.on = true;
        tracer.phase = "serial";
        for (int i = 0; i < 5; ++i) {
            SpanScope s(tracer, "petsckit:MGSolver::v_cycle");
            mg.v_cycle(b, x);
        }
        tracer.on = false;
    });
}

long peak_rss_kib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
    }
    return -1;
}

// ---------------------------------------------------------------------------
// Output.

void print_list(std::FILE* f, const char* key, const std::vector<double>& v) {
    std::fprintf(f, "\"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i) std::fprintf(f, "%s%.9g", i ? ", " : "", v[i]);
    std::fprintf(f, "]");
}

/// Cross-rank step and batch times of one phase (every rank logged the same
/// steps, since each is collective).
struct PhaseTimes {
    std::vector<double> step_ms;
    std::vector<double> run_s;
};

PhaseTimes phase_times(const std::vector<const StepLog*>& logs, bool batch_wall) {
    PhaseTimes out;
    const StepLog& first = *logs.front();
    for (const StepLog* l : logs) {
        if (l->t0.size() != first.t0.size() || l->b0.size() != first.b0.size()) {
            throw std::runtime_error("ranks logged different step counts");
        }
    }
    for (std::size_t i = 0; i < first.t0.size(); ++i) {
        std::int64_t lo = first.t0[i], hi = first.t1[i];
        for (const StepLog* l : logs) {
            lo = std::min(lo, l->t0[i]);
            hi = std::max(hi, l->t1[i]);
        }
        out.step_ms.push_back(static_cast<double>(hi - lo) * 1e-6);
    }
    std::size_t at = 0;
    for (std::size_t k = 0; k < first.b0.size(); ++k) {
        double s = 0.0;
        if (batch_wall) {
            std::int64_t lo = first.b0[k], hi = first.b1[k];
            for (const StepLog* l : logs) {
                lo = std::min(lo, l->b0[k]);
                hi = std::max(hi, l->b1[k]);
            }
            s = seconds_between(lo, hi);
        } else {
            for (std::size_t i = at; i < at + first.batch_steps[k]; ++i) s += out.step_ms[i] * 1e-3;
        }
        at += first.batch_steps[k];
        out.run_s.push_back(s);
    }
    return out;
}

void write_trace(const std::string& path, const std::vector<const Tracer*>& tracers) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write trace file " + path);
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    bool first = true;
    for (std::size_t r = 0; r < tracers.size(); ++r) {
        for (const Span& s : tracers[r]->spans) {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                         "\"step\": %lld, \"phase\": \"%s\", \"role\": \"%s\"}}",
                         first ? "" : ",\n", s.name, r, static_cast<double>(s.t0) * 1e-3,
                         static_cast<double>(s.t1 - s.t0) * 1e-3,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent), static_cast<long long>(s.step),
                         s.phase, s.role);
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") o.workload = value();
        else if (a == "--seed") o.seed = std::stoull(value());
        else if (a == "--seconds") o.seconds = std::stod(value());
        else if (a == "--trace") o.trace = value() == "1";
        else if (a == "--trace-out") o.trace_out = value();
        else if (a == "--corrupt") o.corrupt = true;
        else throw std::runtime_error("unknown argument " + a);
    }
    if (!make_workload(o.workload, 0)) {
        throw std::runtime_error("unknown workload '" + o.workload + "'");
    }
    if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
    if (o.trace && o.trace_out.empty()) throw std::runtime_error("--trace 1 needs --trace-out");
    return o;
}

int run(int argc, char** argv) {
    Shared sh;
    sh.opt = parse(argc, argv);
    g_corrupt = sh.opt.corrupt;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int nranks = static_cast<int>(std::min(4u, hw));
    for (int r = 0; r < nranks; ++r) sh.ranks.emplace_back(r);
    sh.run_is_batch_wall = make_workload(sh.opt.workload, 0)->run_is_batch_wall();

    const double copy_start = copy_gbps();
    rt::World world(nranks);
    world.run([&](rt::Comm& comm) { drive(comm, sh); });

    std::vector<const StepLog*> untraced_logs, traced_logs;
    for (const RankState& rs : sh.ranks) {
        untraced_logs.push_back(&rs.untraced);
        traced_logs.push_back(&rs.traced);
    }
    const PhaseTimes untraced = phase_times(untraced_logs, sh.run_is_batch_wall);

    // Each repetition runs from the first rank starting it to the last
    // finishing it; every rank ran the same repetitions.
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < sh.ranks.front().setup_t0.size(); ++i) {
        std::int64_t lo = sh.ranks.front().setup_t0[i], hi = sh.ranks.front().setup_t1[i];
        for (const RankState& rs : sh.ranks) {
            lo = std::min(lo, rs.setup_t0.at(i));
            hi = std::max(hi, rs.setup_t1.at(i));
        }
        setup_s.push_back(seconds_between(lo, hi));
    }

    Tracer serial_tracer(0);
    double pack = 0.0;
    PhaseTimes traced;
    Snapshot totals{};
    std::uint64_t counted_steps = 0;
    if (sh.opt.trace) {
        traced = phase_times(traced_logs, sh.run_is_batch_wall);
        for (const RankState& rs : sh.ranks) {
            for (std::size_t i = 0; i < kNumCounters; ++i) totals[i] += rs.totals[i];
        }
        counted_steps = sh.ranks.front().counted_steps;
        pack = pack_gbps();
        serial_probe(sh.opt, serial_tracer);
        std::vector<const Tracer*> tracers;
        for (const RankState& rs : sh.ranks) tracers.push_back(&rs.tracer);
        tracers.push_back(&serial_tracer);
        write_trace(sh.opt.trace_out, tracers);
    }
    const double copy_end = copy_gbps();

    std::FILE* f = stdout;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"ranks\": %d, ",
                 sh.opt.workload.c_str(), static_cast<unsigned long long>(sh.opt.seed),
                 sh.opt.trace ? 1 : 0, nranks);
    std::fprintf(f, "\"simd_level\": \"%s\", \"build_type\": \"%s\", ",
                 dt::simd::level_name(dt::simd::active_level()), E2E_BUILD_TYPE);
    std::fprintf(f, "\"attempted\": %llu, \"failed\": %llu, ",
                 static_cast<unsigned long long>(sh.attempted),
                 static_cast<unsigned long long>(sh.failed));
    std::fprintf(f,
                 "\"cold\": {\"prepare_s\": %.9g, \"build_s\": %.9g, \"first_batch_s\": %.9g}, ",
                 seconds_between(sh.cold[0], sh.cold[1]), seconds_between(sh.cold[1], sh.cold[2]),
                 seconds_between(sh.cold[2], sh.cold[3]));
    std::fprintf(f, "\"warmup\": {\"batches\": %zu, \"settled\": %s}, ", sh.warmup_batches,
                 sh.warmup_settled ? "true" : "false");
    std::fprintf(f, "\"peak_rss_kib\": %ld, \"copy_gbps\": [%.9g, %.9g], \"pack_gbps\": %.9g, ",
                 peak_rss_kib(), copy_start, copy_end, pack);
    print_list(f, "setup_s", setup_s);
    std::fprintf(f, ", ");
    print_list(f, "step_ms", untraced.step_ms);
    std::fprintf(f, ", ");
    print_list(f, "run_s", untraced.run_s);
    std::fprintf(f, ", ");
    print_list(f, "traced_step_ms", traced.step_ms);
    std::fprintf(f, ", \"counted_steps\": %llu, \"counters\": {",
                 static_cast<unsigned long long>(counted_steps));
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        std::fprintf(f, "%s\"%s\": %llu", i ? ", " : "", counter_name(i),
                     static_cast<unsigned long long>(totals[i]));
    }
    std::fprintf(f, "}}\n");
    std::fflush(f);
    return sh.failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 2;
    }
}
