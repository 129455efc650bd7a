#include "runtime/sparse.hpp"

#include <algorithm>

namespace nncomm::rt {

namespace {
// Tag offsets inside one epoch lane. The persistent plans own 0x500-0x5ff;
// the sparse-exchange family takes 0x600-0x6ff: payload and ack lanes for
// the exchange itself, a block of per-round lanes for the consensus
// barrier (<= 32 rounds for any 32-bit rank count, well below the 0x1000
// epoch stride).
constexpr int kTagSparsePayload = kInternalTagBase + 0x600;
constexpr int kTagSparseAck = kInternalTagBase + 0x601;
constexpr int kTagIBarrier = kInternalTagBase + 0x610;
}  // namespace

// ---------------------------------------------------------------------------
// IBarrier

IBarrier::IBarrier(Comm& comm)
    : comm_(&comm), lane_(epoch_tag(kTagIBarrier, comm.next_collective_epoch())) {
    if (comm.size() == 1) {
        done_ = true;
        return;
    }
    fire_round();
}

void IBarrier::fire_round() {
    const int n = comm_->size();
    const int r = comm_->rank();
    const int to = (r + step_) % n;
    const int from = (r - step_ % n + n) % n;
    const int tag = lane_ + round_;
    // Post the receive before the send so a fast partner's token always
    // finds it; the zero-byte send is buffered eager and never blocks.
    recv_ = comm_->irecv_i(nullptr, 0, dt::Datatype::byte(), from, tag);
    comm_->send_i(nullptr, 0, dt::Datatype::byte(), to, tag, Protocol::Eager);
}

bool IBarrier::test() {
    NNCOMM_CHECK_MSG(comm_ != nullptr, "IBarrier: test before start");
    while (!done_) {
        if (!comm_->test(recv_)) return false;
        step_ <<= 1;
        ++round_;
        if (step_ >= comm_->size()) {
            done_ = true;
            break;
        }
        fire_round();
    }
    return true;
}

void IBarrier::wait() {
    NNCOMM_CHECK_MSG(comm_ != nullptr, "IBarrier: wait before start");
    while (!test()) {
        // test() left recv_ pending: block on the runtime (which drives
        // delivery) instead of spinning, then advance this round by hand —
        // wait() retires the request, so test() must not poll it again.
        comm_->wait(recv_);
        step_ <<= 1;
        ++round_;
        if (step_ >= comm_->size()) {
            done_ = true;
            break;
        }
        fire_round();
    }
}

// ---------------------------------------------------------------------------
// sparse_exchange

std::vector<SparseRecv> sparse_exchange(Comm& comm, std::span<const SparseSend> sends) {
    const int n = comm.size();
    const int rank = comm.rank();
    // One epoch for the payload/ack lanes; the IBarrier below draws its
    // own. Both draws happen exactly once per rank per call, so the
    // per-communicator epoch sequences stay aligned across ranks even
    // though ranks reach the barrier at different times.
    const int lane = comm.next_collective_epoch();
    const int payload_tag = epoch_tag(kTagSparsePayload, lane);
    const int ack_tag = epoch_tag(kTagSparseAck, lane);
    const dt::Datatype byte = dt::Datatype::byte();

    StatCounters local;
    std::vector<SparseRecv> out;

    // Validate destinations and fire the remote payload sends. Eager is
    // forced: rendezvous needs a posted receive, and the whole point of
    // the exchange is that receivers do not yet know their sources.
    std::vector<Request> sreqs;
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::size_t acks_needed = 0;
    for (const SparseSend& s : sends) {
        NNCOMM_CHECK_MSG(s.dest >= 0 && s.dest < n, "sparse_exchange: destination out of range");
        NNCOMM_CHECK_MSG(!seen[static_cast<std::size_t>(s.dest)],
                         "sparse_exchange: duplicate destination");
        seen[static_cast<std::size_t>(s.dest)] = 1;
        if (s.dest == rank) {
            // Self-delivery: a local copy, no wire traffic, no ack.
            SparseRecv r;
            r.source = rank;
            r.bytes.assign(s.bytes.begin(), s.bytes.end());
            out.push_back(std::move(r));
            continue;
        }
        sreqs.push_back(
            comm.isend_i(s.bytes.data(), s.bytes.size(), byte, s.dest, payload_tag,
                         Protocol::Eager));
        ++acks_needed;
        ++local.rt_sparse_msgs_sent;
    }

    // Consensus: one predicate pass drains payloads (answering each with
    // an ack), counts acks for our own sends, and once all are in, starts
    // the nonblocking barrier and tests it. A rank with no sends enters the
    // barrier on its first pass. Everything a pass waits for is a delivery
    // to this rank, which pulses its mailbox, so wait_until may park the
    // rank between passes (see the header's wait discipline).
    std::size_t acks_got = 0;
    IBarrier barrier;
    comm.wait_until([&] {
        ++local.rt_sparse_probe_polls;
        for (;;) {
            ProbeStatus st = comm.iprobe_i(kAnySource, payload_tag);
            if (!st.found) break;
            SparseRecv r;
            r.source = st.source;
            r.bytes.resize(st.bytes);
            comm.recv_i(r.bytes.empty() ? nullptr : r.bytes.data(), st.bytes, byte, st.source,
                        payload_tag);
            out.push_back(std::move(r));
            comm.send_i(nullptr, 0, byte, st.source, ack_tag, Protocol::Eager);
            ++local.rt_sparse_msgs_recvd;
        }

        while (acks_got < acks_needed) {
            ProbeStatus st = comm.iprobe_i(kAnySource, ack_tag);
            if (!st.found) break;
            comm.recv_i(nullptr, 0, byte, st.source, ack_tag);
            ++acks_got;
        }

        if (!barrier.started()) {
            if (acks_got < acks_needed) return false;
            // Every payload we injected has been consumed remotely, so the
            // send requests are already deliverable: this waitall only
            // retires local bookkeeping and cannot block on a peer.
            comm.waitall(sreqs);
            barrier = IBarrier(comm);
        }
        return barrier.test();
    });

    // Deterministic result order regardless of arrival interleaving.
    std::sort(out.begin(), out.end(),
              [](const SparseRecv& a, const SparseRecv& b) { return a.source < b.source; });
    ++local.rt_sparse_exchanges;
    comm.merge_stats(local, PhaseTimers{});
    return out;
}

}  // namespace nncomm::rt
