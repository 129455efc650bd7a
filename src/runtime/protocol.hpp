// Transfer-protocol selection: one static eager/rendezvous boundary.
//
// Like the MPICH2/MVAPICH2 stacks the paper measures on, every layer
// chooses eager or rendezvous with one fixed size threshold per
// communicator (Comm::rendezvous_threshold, 32 KiB by default). The
// choice is a pure function of (bytes, threshold): both ends of a
// persistent plan reach the same decision from the volumes they already
// agree on, so a receiver knows exactly which senders will wait for its
// clear-to-send, and reruns of a plan make bit-identical choices.
#pragma once

#include <cstdint>

namespace nncomm::rt {

/// The one eager/rendezvous boundary every layer applies (Comm's send path,
/// the schedule builders' phase hints, persistent plans, netsim): a message
/// goes rendezvous iff it is nonempty and at least `threshold` bytes. A
/// message of exactly `threshold` bytes goes rendezvous; a zero-byte one
/// never does, even at threshold 0.
constexpr bool rendezvous_eligible(std::uint64_t bytes, std::uint64_t threshold) {
    return bytes > 0 && bytes >= threshold;
}

}  // namespace nncomm::rt
