// One-sided RMA windows over the threaded runtime.
//
// A Win exposes every rank's local buffer for direct remote access: a put
// writes straight into the target's memory, and no envelope, matching, or
// clear-to-send traffic ever moves. On this shared-address-space runtime
// the data transfer itself is a single memcpy (or, for the persistent
// plans, a fused SIMD pack directly into the target region via
// translate()); what the window machinery provides is the
// *synchronization*: epochs that tell the target when remotely written data
// is complete and may be read.
//
// Completion rides the seq-counter pulse infrastructure (comm.cpp), not
// mailbox messages: an epoch transition stores its counter (release), then
// Comm::pulse_rank bumps the waiter's mailbox pulse; the waiting rank parks
// in the same spin / yield / registered-timed-sleep discipline as a message
// waiter (Comm::wait_until), so a suppressed or lost notify self-heals on
// the timed slice. Ordering versus the SPSC lanes is a non-issue by
// construction: window payloads never touch the lanes, and the epoch
// counters carry release/acquire edges that publish every plain store (the
// put bytes) made before the transition.
//
// Two epoch flavors, mirroring MPI-3 active-target synchronization:
//  - fence(): collective over the communicator; closes the current access
//    epoch AND the current exposure epoch on every rank. After fence()
//    returns, every put issued by any rank before its fence is visible to
//    its target.
//  - pscw (start/complete/post/wait): pairwise. A target post()s exposure
//    to a set of origins; each origin start()s access to its targets (waits
//    for the matching posts), puts, then complete()s (signals the targets);
//    the target's wait() blocks until every posted origin completed.
//
// Win is per-rank and value-semantic over a shared control block, like
// Comm over WorldState. Not thread-safe; each rank thread owns its handle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/comm.hpp"

namespace nncomm::rt {

namespace detail {
struct WinShared;
}  // namespace detail

class Win {
public:
    Win() = default;
    bool valid() const { return shared_ != nullptr; }

    /// Collective over `comm`: every rank contributes a local region
    /// (`base`, `bytes`); any rank may pass (nullptr, 0) to expose nothing.
    /// The region must outlive the Win. Returns this rank's handle.
    static Win create(Comm& comm, void* base, std::size_t bytes);

    int rank() const;
    int size() const;
    /// Size in bytes of `target`'s exposed region.
    std::size_t region_bytes(int target) const;

    /// Bounds-checked pointer to `bytes` of `target`'s region starting at
    /// `offset`. This is the fused pack+put entry: a persistent plan runs
    /// its frozen SIMD pack kernels directly against this pointer, then
    /// calls record_put() so the transfer is accounted. Raw access carries
    /// the window's synchronization contract: write between your epoch
    /// open and close, never outside.
    void* translate(int target, std::size_t offset, std::size_t bytes);

    /// Contiguous one-sided transfer (memcpy + accounting).
    void put(const void* src, std::size_t bytes, int target, std::size_t target_offset);
    /// Accounts a transfer performed through translate() as one put.
    void record_put(std::size_t bytes);

    /// Collective epoch close (see header comment). Nonblocking half-pair
    /// for schedule executors: fence_begin() announces arrival and returns;
    /// fence_test() polls whether every rank has arrived. fence() ==
    /// fence_begin() + block on fence_test().
    void fence();
    void fence_begin();
    bool fence_test();

    // -- pscw ----------------------------------------------------------------
    /// Exposure epoch: allow `origins` to write this rank's region.
    void post(const std::vector<int>& origins);
    /// Blocks until every origin of the current exposure epoch completed.
    void wait();
    /// Access epoch: blocks until every rank in `targets` posted to us.
    void start(const std::vector<int>& targets);
    /// Closes the access epoch: signals every started target.
    void complete();

private:
    Win(std::shared_ptr<detail::WinShared> shared, Comm* comm, int rank)
        : shared_(std::move(shared)), comm_(comm), rank_(rank) {}

    std::shared_ptr<detail::WinShared> shared_;
    Comm* comm_ = nullptr;
    int rank_ = -1;
    std::vector<int> start_group_;  ///< targets of the open access epoch
    std::vector<int> post_group_;   ///< origins of the open exposure epoch
    std::vector<std::uint64_t> consumed_posts_;      ///< per-target posts matched by start()
    std::vector<std::uint64_t> consumed_completes_;  ///< per-origin completes matched by wait()
    std::uint64_t fence_target_ = 0;  ///< epoch a pending fence_begin() waits for
    bool fence_open_ = false;
    bool access_open_ = false;    ///< between start() and complete()
    bool exposure_open_ = false;  ///< between post() and wait()
};

}  // namespace nncomm::rt
