// Self-tuning transfer-protocol selection (the adaptive rendezvous
// threshold).
//
// The paper's Fig. 15/16 message populations are nonuniform — a few huge
// bins next to many tiny ones — so one global rendezvous threshold is wrong
// for most (src, dst) pairs most of the time. Instead of a constant, each
// pair keeps three exponentially weighted regression lines per pack-plan
// family, fed from timestamps already taken on the hot paths:
//
//   eager_send   — cost of staging a payload into an envelope (sender side)
//   eager_unpack — cost of copying the envelope into the user buffer
//                  (receiver side)
//   rdzv         — cost of the rendezvous claim + single direct copy
//
// Each line fits cost_ns ≈ a + b·bytes. The eager path pays both copies, so
// its model is (a_send + a_unpack) + (b_send + b_unpack)·s; the learned
// crossover s* = (a_rdzv − a_eager) / (b_eager − b_rdzv) is the message size
// where rendezvous starts winning, and Protocol::Auto resolves against it
// once every contributing line has enough samples. Until then — and
// whenever adaptation is disabled — the static communicator threshold
// applies unchanged.
//
// Threading: every line has exactly one writer (eager_send and rdzv are
// written by the sending rank's thread, eager_unpack by the receiving
// rank's), so the regression moments need no synchronization. The published
// fit bit-packs float(a) and float(b) into ONE atomic u64 so concurrent
// readers always see a coherent (a, b) pair from a single relaxed load.
//
// Determinism: observations are a pure function of (bytes, measured ns) and
// arrive in a per-line deterministic order on the paths the tests exercise;
// World::set_synthetic_protocol_costs replaces the clock with an analytic
// cost model so convergence tests are seed-stable and bit-identical across
// reruns.
//
// ProtoTuneCache freezes converged per-peer protocol choices per
// (communicator context, pattern signature) — first freeze wins — so
// persistent AlltoallwPlan/VecScatter plans built from the same pattern
// make bit-identical protocol choices across reruns of a long-running
// service.
//
// Escape hatches: the NNCOMM_ADAPTIVE env var ("OFF"/"0"/"FALSE",
// case-insensitive) pins the legacy static threshold at runtime, mirroring
// the NNCOMM_SIMD pattern; Comm::set_adaptive_protocol(false) does the same
// for one communicator.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/env.hpp"
#include "datatype/datatype.hpp"
#include "datatype/plan.hpp"

namespace nncomm::rt {

/// Escape hatch: NNCOMM_ADAPTIVE=OFF|0|FALSE pins the static threshold.
/// Memoized (first call wins, like simd.cpp's NNCOMM_SIMD cap).
inline bool adaptive_runtime_enabled() {
    static const bool enabled = env_flag_enabled(std::getenv("NNCOMM_ADAPTIVE"));
    return enabled;
}

/// Escape hatch: NNCOMM_RMA=OFF|0|FALSE keeps persistent plans on the
/// two-sided protocols. rt::Win itself is always available — only the
/// persistent-plan protocol selection is gated. Memoized like the above.
inline bool rma_selection_enabled() {
    static const bool enabled = env_flag_enabled(std::getenv("NNCOMM_RMA"));
    return enabled;
}

/// Pack-plan family a protocol observation is attributed to. Mirrors
/// dt::PackKernel — the copy cost per byte differs by an order of magnitude
/// between a dense memcpy and an irregular gather, so the crossover does too.
enum class PackFamily : int {
    Contiguous = 0,
    Strided = 1,
    BlockedStrided = 2,
    Irregular = 3,
};

inline constexpr int kNumPackFamilies = 4;

inline PackFamily family_of(const dt::Datatype& type) {
    switch (type.plan().kernel()) {
        case dt::PackKernel::Contiguous: return PackFamily::Contiguous;
        case dt::PackKernel::Strided: return PackFamily::Strided;
        case dt::PackKernel::BlockedStrided: return PackFamily::BlockedStrided;
        case dt::PackKernel::Irregular: return PackFamily::Irregular;
    }
    return PackFamily::Irregular;
}

inline const char* pack_family_name(PackFamily f) {
    switch (f) {
        case PackFamily::Contiguous: return "Contiguous";
        case PackFamily::Strided: return "Strided";
        case PackFamily::BlockedStrided: return "BlockedStrided";
        case PackFamily::Irregular: return "Irregular";
    }
    return "?";
}

/// Analytic cost model substituted for the clock by
/// World::set_synthetic_protocol_costs: an observation of `bytes` on a line
/// contributes base_ns + per_byte_ns·bytes instead of a measured duration.
/// Makes adaptation a pure function of the message sequence (determinism
/// tests) and lets benches place the crossover exactly.
struct SyntheticProtoCosts {
    bool enabled = false;
    double eager_send_base_ns = 0.0;
    double eager_send_per_byte_ns = 0.0;
    double eager_unpack_base_ns = 0.0;
    double eager_unpack_per_byte_ns = 0.0;
    double rdzv_base_ns = 0.0;
    double rdzv_per_byte_ns = 0.0;
};

/// One exponentially weighted least-squares line (cost = a + b·x).
/// Single-writer: observe() must only ever be called from one thread; the
/// published fit is readable from any thread via a single relaxed load.
class EwLine {
public:
    /// Smoothing factor for the EW moments: each observation carries weight
    /// alpha, history decays by (1 − alpha). 1/16 forgets a regime change in
    /// a few dozen messages without chasing per-message noise.
    static constexpr double kAlpha = 1.0 / 16.0;

    struct Fit {
        float a = 0.0f;  ///< intercept, ns
        float b = 0.0f;  ///< slope, ns per byte
        std::uint32_t n = 0;
    };

    void observe(double x, double y) {
        const double keep = 1.0 - kAlpha;
        w_ = keep * w_ + kAlpha;
        mx_ = keep * mx_ + kAlpha * x;
        my_ = keep * my_ + kAlpha * y;
        mxx_ = keep * mxx_ + kAlpha * x * x;
        mxy_ = keep * mxy_ + kAlpha * x * y;
        // Bias-corrected means (w_ < 1 during warmup).
        const double ex = mx_ / w_;
        const double ey = my_ / w_;
        const double var = mxx_ / w_ - ex * ex;
        const double cov = mxy_ / w_ - ex * ey;
        float a;
        float b;
        if (var > 1e-9) {
            b = static_cast<float>(cov / var);
            a = static_cast<float>(ey - (cov / var) * ex);
        } else {
            // All observations at (effectively) one size: no slope signal.
            b = 0.0f;
            a = static_cast<float>(ey);
        }
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(a)) << 32) |
            std::bit_cast<std::uint32_t>(b);
        ab_.store(packed, std::memory_order_relaxed);
        n_.fetch_add(1, std::memory_order_relaxed);
    }

    Fit fit() const {
        const std::uint64_t packed = ab_.load(std::memory_order_relaxed);
        Fit f;
        f.a = std::bit_cast<float>(static_cast<std::uint32_t>(packed >> 32));
        f.b = std::bit_cast<float>(static_cast<std::uint32_t>(packed & 0xffffffffu));
        f.n = n_.load(std::memory_order_relaxed);
        return f;
    }

private:
    // Writer-private EW moments; only the fit is shared.
    double w_ = 0.0;
    double mx_ = 0.0;
    double my_ = 0.0;
    double mxx_ = 0.0;
    double mxy_ = 0.0;
    std::atomic<std::uint64_t> ab_{0};
    std::atomic<std::uint32_t> n_{0};
};

/// Solves the eager/rendezvous crossover from three line fits. Returns
/// `fallback` until every contributing line has `min_samples` observations;
/// a confident answer is clamped to [lo, hi].
inline std::size_t crossover_bytes(const EwLine::Fit& eager_send, const EwLine::Fit& eager_unpack,
                                   const EwLine::Fit& rdzv, std::uint32_t min_samples,
                                   std::size_t lo, std::size_t hi, std::size_t fallback) {
    if (eager_send.n < min_samples || eager_unpack.n < min_samples || rdzv.n < min_samples) {
        return fallback;
    }
    const double ae = static_cast<double>(eager_send.a) + static_cast<double>(eager_unpack.a);
    const double be = static_cast<double>(eager_send.b) + static_cast<double>(eager_unpack.b);
    const double ar = static_cast<double>(rdzv.a);
    const double br = static_cast<double>(rdzv.b);
    if (be <= br) {
        // Eager never loses per byte: rendezvous wins everywhere or nowhere.
        return (ar < ae) ? lo : hi;
    }
    const double s = (ar - ae) / (be - br);
    if (s <= static_cast<double>(lo)) return lo;
    if (s >= static_cast<double>(hi)) return hi;
    return static_cast<std::size_t>(s);
}

/// Per-world table of per-(src, dst)-pair protocol cost models. Pair slots
/// allocate lazily on first observation (under a mutex) and publish through
/// an atomic pointer, so idle pairs cost 8 bytes and hot-path reads never
/// lock.
class ProtoTable {
public:
    /// Confidence gate: a learned threshold is only trusted once each of
    /// the three lines feeding it has this many observations.
    static constexpr std::uint32_t kMinSamples = 16;
    /// Learned-threshold clamps. The floor keeps latency-bound traffic off
    /// the handshake even when a noisy fit says otherwise; the ceiling keeps
    /// one bad rendezvous sample from disabling the protocol entirely.
    static constexpr std::size_t kMinThreshold = 1024;
    static constexpr std::size_t kMaxThreshold = 8 * 1024 * 1024;

    explicit ProtoTable(int nranks) : nranks_(nranks), slots_(pair_count(nranks)) {
        for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
    }
    ~ProtoTable() {
        for (auto& s : slots_) delete s.load(std::memory_order_relaxed);
    }
    ProtoTable(const ProtoTable&) = delete;
    ProtoTable& operator=(const ProtoTable&) = delete;

    // Observers tolerate out-of-range ranks (a send to an invalid
    // destination is rejected by the runtime *after* the protocol layer
    // sees it — the table must not fault first).
    void observe_eager_send(int src, int dst, PackFamily f, double bytes, double ns) {
        if (!in_range(src) || !in_range(dst)) return;
        pair(src, dst).fam[static_cast<int>(f)].eager_send.observe(bytes, ns);
    }
    void observe_eager_unpack(int src, int dst, PackFamily f, double bytes, double ns) {
        if (!in_range(src) || !in_range(dst)) return;
        pair(src, dst).fam[static_cast<int>(f)].eager_unpack.observe(bytes, ns);
    }
    void observe_rdzv(int src, int dst, PackFamily f, double bytes, double ns) {
        if (!in_range(src) || !in_range(dst)) return;
        pair(src, dst).fam[static_cast<int>(f)].rdzv.observe(bytes, ns);
    }

    struct LineFits {
        EwLine::Fit eager_send;
        EwLine::Fit eager_unpack;
        EwLine::Fit rdzv;
    };

    LineFits fits(int src, int dst, PackFamily f) const {
        LineFits out;
        if (const PairState* p = pair_if(src, dst)) {
            const FamilyLines& lines = p->fam[static_cast<int>(f)];
            out.eager_send = lines.eager_send.fit();
            out.eager_unpack = lines.eager_unpack.fit();
            out.rdzv = lines.rdzv.fit();
        }
        return out;
    }

    /// The learned crossover for (src, dst, family), or `fallback` (the
    /// communicator's static threshold) while under-sampled.
    std::size_t learned_threshold(int src, int dst, PackFamily f, std::size_t fallback) const {
        const PairState* p = pair_if(src, dst);
        if (p == nullptr) return fallback;
        const FamilyLines& lines = p->fam[static_cast<int>(f)];
        return crossover_bytes(lines.eager_send.fit(), lines.eager_unpack.fit(),
                               lines.rdzv.fit(), kMinSamples, kMinThreshold, kMaxThreshold,
                               fallback);
    }

    /// Total observe() calls across all pairs of a (src, dst) slot — tests
    /// use this to assert two runs fed the model identically.
    std::uint64_t pair_samples(int src, int dst) const {
        const PairState* p = pair_if(src, dst);
        if (p == nullptr) return 0;
        std::uint64_t total = 0;
        for (const FamilyLines& lines : p->fam) {
            total += lines.eager_send.fit().n;
            total += lines.eager_unpack.fit().n;
            total += lines.rdzv.fit().n;
        }
        return total;
    }

private:
    struct FamilyLines {
        EwLine eager_send;
        EwLine eager_unpack;
        EwLine rdzv;
    };
    struct PairState {
        FamilyLines fam[kNumPackFamilies];
    };

    static std::size_t pair_count(int nranks) {
        return static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks);
    }
    std::size_t slot(int src, int dst) const {
        return static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks_) +
               static_cast<std::size_t>(dst);
    }

    PairState& pair(int src, int dst) {
        std::atomic<PairState*>& s = slots_[slot(src, dst)];
        PairState* p = s.load(std::memory_order_acquire);
        if (p == nullptr) {
            std::lock_guard<std::mutex> lock(alloc_mu_);
            p = s.load(std::memory_order_relaxed);
            if (p == nullptr) {
                p = new PairState();
                s.store(p, std::memory_order_release);
            }
        }
        return *p;
    }
    const PairState* pair_if(int src, int dst) const {
        if (!in_range(src) || !in_range(dst)) return nullptr;
        return slots_[slot(src, dst)].load(std::memory_order_acquire);
    }
    bool in_range(int r) const { return r >= 0 && r < nranks_; }

    int nranks_;
    std::vector<std::atomic<PairState*>> slots_;
    std::mutex alloc_mu_;
};

/// Order-insensitive-free (sequential) 64-bit hash mix for pattern
/// signatures. Seed with any nonzero constant and fold fields in a fixed
/// order on every rank.
inline std::uint64_t proto_sig_mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h * 0x2545f4914f6cdd1dull;
}

/// Process-wide cache of frozen per-pattern protocol choices, keyed by a
/// hash of (communicator context, rank, per-peer volumes, datatype plan
/// signatures, thresholds). First freeze wins: a plan built later for the
/// same pattern adopts the earlier plan's choices verbatim, so reruns are
/// bit-identical even if the cost model has drifted in between. Mirrors
/// dt::PlanCache (process-wide singleton, mutex-guarded, reset() for tests).
class ProtoTuneCache {
public:
    static ProtoTuneCache& instance() {
        static ProtoTuneCache cache;
        return cache;
    }

    /// One frozen pattern: positional per-send-peer protocol choices
    /// (1 = rendezvous) and the learned per-peer thresholds they were
    /// derived from (for reporting/tests).
    struct Entry {
        std::vector<std::uint8_t> send_rdzv;
        std::vector<std::size_t> thresholds;
    };

    std::shared_ptr<const Entry> lookup(std::uint64_t key) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) return nullptr;
        ++stats_.hits;
        return it->second;
    }

    /// Inserts `e` for `key` unless an entry already exists; returns the
    /// canonical (first-frozen) entry either way.
    std::shared_ptr<const Entry> freeze(std::uint64_t key, Entry e) {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = map_.try_emplace(key);
        if (inserted) {
            it->second = std::make_shared<const Entry>(std::move(e));
            ++stats_.freezes;
        }
        return it->second;
    }

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t freezes = 0;
        std::size_t entries = 0;
    };
    Stats stats() const {
        std::lock_guard<std::mutex> lock(mu_);
        Stats s = stats_;
        s.entries = map_.size();
        return s;
    }

    /// Drops all entries and zeroes the statistics (tests).
    void reset() {
        std::lock_guard<std::mutex> lock(mu_);
        map_.clear();
        stats_ = Stats{};
    }

private:
    ProtoTuneCache() = default;
    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, std::shared_ptr<const Entry>> map_;
    Stats stats_;
};

}  // namespace nncomm::rt
