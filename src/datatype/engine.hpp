// Pipelined datatype pack engines.
//
// An engine turns (user buffer, datatype, count) into a sequence of
// pipeline chunks, each either
//   - DENSE: a list of (pointer, length) regions to be transmitted directly
//     (the writev-style path used when contiguous runs are large), or
//   - SPARSE: bytes packed into the engine's intermediate buffer.
//
// Before each chunk both engines perform a look-ahead over the upcoming
// type signature to classify the chunk as dense or sparse (§3.1). The two
// engines differ in what the look-ahead costs them afterwards:
//
// SingleContextEngine (MPICH2-as-described baseline, §3.1): one context.
//   The look-ahead advances it; if the chunk is classified sparse the pack
//   position has been lost and is recovered by re-searching the datatype
//   from its head (TypeCursor::seek_linear) — O(position) per chunk,
//   O(total²) overall. This is the measured flaw of Figures 12/13a.
//
// DualContextEngine (the paper's §4.1 design): two contexts. The look-ahead
//   context rolls forward over at most `lookahead_blocks` signature
//   elements (15 in the paper) while the pack context never moves except to
//   pack, so no search is ever needed. The redundant cost is bounded by the
//   look-ahead window and therefore near-constant per chunk.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/counters.hpp"
#include "datatype/cursor.hpp"
#include "datatype/plan.hpp"

namespace nncomm::dt {

enum class EngineKind {
    SingleContext,  ///< baseline: loses context on sparse chunks, re-searches
    DualContext,    ///< optimized: separate look-ahead and pack contexts
};

inline const char* engine_kind_name(EngineKind k) {
    return k == EngineKind::SingleContext ? "single-context" : "dual-context";
}

struct EngineConfig {
    /// Pipelining granularity: maximum bytes handed to the transport per
    /// chunk (pack-buffer size in the sparse path).
    std::size_t pipeline_chunk = 64 * 1024;
    /// Look-ahead window, in signature elements (contiguous blocks). The
    /// paper uses 15.
    std::size_t lookahead_blocks = 15;
    /// A chunk whose average contiguous-block length (bytes) is at least
    /// this is dense and is sent directly without packing.
    double density_threshold = 256.0;
    /// When true (default) the runtime moves noncontiguous layouts through
    /// the type's compiled PackPlan kernel where it can; false walks the
    /// cursor at every site that reads this flag. The sites:
    ///   - Comm::try_rendezvous's gather (noncontiguous sender, dense
    ///     receiver) and every receive-side unpack (the rendezvous scatters
    ///     and Comm::finish_recv's eager unpack) run the plan kernel for
    ///     every class, Irregular included.
    ///   - The engines' own chunk loop runs the plan kernel only for
    ///     specialized plans (contiguous / constant-stride). So the
    ///     buffered-eager pack (Comm::pack_envelope) and the sender of a
    ///     rendezvous with both sides noncontiguous walk Irregular layouts
    ///     through the cursor engine, where the baseline's quadratic
    ///     re-search and the dual-context look-ahead live.
    ///   - The schedule's Pack/Put ops do not read the flag: specialized
    ///     plans run the kernel, Irregular layouts a persistent cursor
    ///     engine. Its Unpack ops always run the plan kernel.
    bool enable_plan_fastpath = true;

    bool operator==(const EngineConfig&) const = default;
};

/// One pipeline chunk produced by an engine.
struct ChunkView {
    bool dense = false;
    /// Valid when !dense: packed bytes, owned by the engine, stable until
    /// the next next_chunk() call.
    std::span<const std::byte> packed;
    /// Valid when dense: direct regions of the user buffer.
    std::span<const std::pair<const std::byte*, std::size_t>> iov;
    std::size_t bytes = 0;
};

class PackEngine {
public:
    PackEngine(const void* base, const Datatype& type, std::size_t count,
               const EngineConfig& config);
    virtual ~PackEngine() = default;

    PackEngine(const PackEngine&) = delete;
    PackEngine& operator=(const PackEngine&) = delete;

    /// Produces the next chunk; returns false when all data has been
    /// emitted. The returned views are invalidated by the next call.
    virtual bool next_chunk(ChunkView& out) = 0;

    /// Rearms the engine for a fresh pass over `base` (same type, count and
    /// config) without reallocating scratch or iov storage. Persistent
    /// communication plans build their per-peer engines once and reset them
    /// on every execute.
    virtual void reset(const void* base);

    std::uint64_t total_bytes() const { return total_bytes_; }
    std::uint64_t bytes_done() const { return bytes_done_; }
    bool finished() const { return bytes_done_ == total_bytes_; }

    const StatCounters& counters() const { return counters_; }
    const PhaseTimers& timers() const { return timers_; }
    PhaseTimers& timers() { return timers_; }

    /// Zeroes the engine's counters and timers. Persistent plans harvest
    /// the statistics after each drain and clear them so nothing is counted
    /// twice across execute() calls.
    void reset_stats() {
        counters_.reset();
        timers_.reset();
    }

protected:
    /// Plan-kernel chunk dispatch shared by both engines. Returns true and
    /// fills `out` when the type's compiled plan is specialized (and the
    /// fast path is enabled); the caller then skips its cursor machinery.
    bool plan_chunk(ChunkView& out);

    const std::byte* base_;
    Datatype type_;
    std::size_t count_;
    EngineConfig config_;
    const PackPlan* plan_ = nullptr;  ///< owned by type_'s node
    std::uint64_t total_bytes_ = 0;
    std::uint64_t bytes_done_ = 0;
    std::unique_ptr<std::byte[]> scratch_;  // intermediate pack buffer, pipeline_chunk bytes
    std::vector<std::pair<const std::byte*, std::size_t>> iov_;
    StatCounters counters_;
    PhaseTimers timers_;
};

/// Baseline engine reproducing the single-context + re-search behaviour.
class SingleContextEngine final : public PackEngine {
public:
    SingleContextEngine(const void* base, const Datatype& type, std::size_t count,
                        const EngineConfig& config = {});
    bool next_chunk(ChunkView& out) override;
    void reset(const void* base) override;

private:
    TypeCursor cursor_;  ///< the single context
};

/// The paper's dual-context look-ahead engine.
class DualContextEngine final : public PackEngine {
public:
    DualContextEngine(const void* base, const Datatype& type, std::size_t count,
                      const EngineConfig& config = {});
    bool next_chunk(ChunkView& out) override;
    void reset(const void* base) override;

private:
    TypeCursor pack_ctx_;       ///< context 2: actual packing, never lost
    TypeCursor lookahead_ctx_;  ///< context 1: signature-only roll-forward
};

/// Factory keyed on EngineKind (used by the runtime's send path).
std::unique_ptr<PackEngine> make_engine(EngineKind kind, const void* base, const Datatype& type,
                                        std::size_t count, const EngineConfig& config = {});

}  // namespace nncomm::dt
