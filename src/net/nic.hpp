// NIC model: per-rank network interface with an autonomous DMA engine.
//
// The central behavioural property (the reason latency hiding is possible
// at all, paper Sec. 1) is that once the host *posts* a work request, the
// NIC moves the data in virtual time with no further host involvement; the
// host only learns about progress by *polling* the completion / receive
// queues.  Whenever the NIC deposits a CQ entry or received packet it also
// pokes the owning rank's wake token, so a rank sleeping inside a library
// progress loop resumes at the right virtual time — but a rank busy
// computing stays busy, and discovers the event only at its next library
// call.  That asymmetry is what the paper's instrumentation measures.
//
// Channelized wire model (DESIGN.md 5.17).  Each NIC exposes
// VciParams::channelCount() virtual channel interfaces (VCIs), each with
// its own receive/completion queues and its own egress serialization chain;
// channel c of every NIC maps to physical rail c % rails of its node's
// port.  A transfer of S wire bytes on channel c from NIC a to NIC b:
//   chan_free       = max(post + nic_setup, a.chan_busy[c])   (own backlog)
//   first_byte_out  = max(chan_free, a.tx_rail[c%R].busy)     (rail arbitration)
//   last_byte_out   = first_byte_out + S*G    (chain + rail updated)
//   first_byte_in   = max(first_byte_out + L, b.rx_rail[c%R].busy)
//   arrival         = first_byte_in + S*G     (rail updated)
// which reduces to t0 + L + S*G on an unloaded path.  Waiting behind one's
// own earlier traffic (same rank on tx, same source node on rx) is
// accounted as *gap* (LogGP bandwidth limit); waiting behind traffic from
// a different rank (tx) or different source node (rx) is *link-wait* /
// *incast-wait* — the contended share that feeds the cluster layer's
// interference metrics.  With channels == 0 (default) a single implicit
// channel on one rail reproduces the historical single-queue model
// bit-for-bit.
// When FabricParams::fault is enabled the fabric becomes lossy and every
// NIC runs a reliability protocol over the same two-phase wire: each data
// transmission is acked by the receiving NIC, lost/corrupted packets are
// retransmitted on an exponentially backed-off timeout, receivers
// de-duplicate (and re-ack) by per-sender transmission id, and a work
// request whose retries are exhausted completes with
// WorkStatus::RetryExhausted.  Local completions are then delivered at ack
// arrival (delivery-implies-completion).  In both modes every handler
// touches only its own rank's NIC state, at any engine worker count.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/memreg.hpp"
#include "net/packet.hpp"
#include "net/params.hpp"
#include "overlap/counters.hpp"
#include "sim/engine.hpp"
#include "util/types.hpp"

namespace ovp::net {

class Fabric;
class WireObserver;

class Nic {
 public:
  Nic(Fabric& fabric, Rank owner);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Posts a two-sided send of `pkt` to rank dst.  A local Send completion
  /// appears on this NIC's CQ when the last byte leaves; the packet appears
  /// on dst's receive queue at arrival time.  Returns the work id.
  /// `vci` < 0 lets the configured channel-assignment policy pick.
  WorkId postSend(Rank dst, Packet pkt, int vci = -1);

  /// Posts an RDMA Write of `size` bytes from local memory `src` into
  /// remote memory `dst_ptr` on rank dst.  Data is captured when the last
  /// byte leaves the source and placed remotely at arrival.  If
  /// `notify` is non-null it is delivered to dst's receive queue after the
  /// data (same-QP ordering: the notification rides the data's channel),
  /// modelling a write-completion control message.
  WorkId postRdmaWrite(Rank dst, const void* src, void* dst_ptr, Bytes size,
                       const Packet* notify = nullptr, int vci = -1);

  /// Posts an RDMA Read of `size` bytes from remote memory `remote_src` on
  /// rank target into local memory `local_dst`.  The local RdmaRead
  /// completion appears when the data has fully arrived.  Both legs
  /// (request out, data back) use the same channel.
  WorkId postRdmaRead(Rank target, void* local_dst, const void* remote_src,
                      Bytes size, int vci = -1);

  /// RDMA Write variant whose remote placement is performed by `apply`
  /// (staged source bytes, destination pointer) instead of a plain copy —
  /// the mechanism behind one-sided accumulate operations, where the
  /// target-side NIC/agent combines incoming data into memory.
  WorkId postRdmaApply(
      Rank dst, const void* src, void* dst_ptr, Bytes size,
      std::function<void(const std::byte* staged, void* dst, Bytes n)> apply,
      int vci = -1);

  /// Channel the configured assignment policy would pick for a post to
  /// `dst` carrying `tag` (tag < 0 = untagged control traffic).  Always 0
  /// when the VCI layer is disabled.  Library layers call this to pin a
  /// (peer, tag) message stream to one channel.
  int vciFor(Rank dst, int tag);

  /// Non-blocking CQ poll; true if a completion was dequeued into `out`.
  /// Drains all channels' CQs in deposit order (identical to the
  /// single-queue model).  The *host cost* of polling is charged by the
  /// library layer, not here.
  bool pollCompletion(Completion& out);

  /// Batched CQ drain: appends every pending completion to `out` and returns
  /// the number drained.  One call replaces a pollCompletion loop; the
  /// library layer still charges its per-entry poll cost, so timing is
  /// unchanged.
  std::size_t drainCompletions(std::vector<Completion>& out);

  /// Non-blocking receive-queue poll (all channels, deposit order).
  bool pollRecv(Packet& out);

  /// Registration cache for this HCA.
  [[nodiscard]] RegistrationCache& regCache() { return reg_cache_; }

  /// Counters (diagnostics / tests).
  [[nodiscard]] std::int64_t packetsDelivered() const {
    return packets_delivered_;
  }
  [[nodiscard]] Bytes bytesSent() const { return bytes_sent_; }

  /// Cumulative *contended* link time of this rank's transfers: virtual
  /// time spent queued behind a different rank's traffic on the node's
  /// egress rails (tx) or behind a different source node's traffic on the
  /// ingress rails (rx, incast).  Waiting behind one's own earlier
  /// transfers is a bandwidth (gap) effect and is deliberately excluded —
  /// this is the attribution signal behind the cluster layer's
  /// fabric-contention share, which should not count self-serialization.
  [[nodiscard]] DurationNs linkWaitTx() const { return tx_wait_; }
  [[nodiscard]] DurationNs linkWaitRx() const { return rx_wait_; }

  /// Per-(channel, size-class) wire accounting, populated only when the
  /// VCI layer is enabled: row c * classes.count() + k for channel c and
  /// class k of VciParams::classes (see overlap::VciChannelClass).
  [[nodiscard]] const std::vector<overlap::VciChannelClass>& vciCounters()
      const {
    return vci_stats_;
  }

  /// Fault/reliability counters for this NIC (all zero when the fault
  /// model is disabled; see overlap::FaultStats).
  [[nodiscard]] const overlap::FaultStats& faultCounters() const {
    return fault_counters_;
  }

 private:
  friend class Fabric;

  /// Resolves a caller-requested channel (clamped into range) or applies
  /// the assignment policy; always 0 when the layer is disabled.
  int resolveVci(Rank dst, int requested);

  /// Per-(channel, class) counter slot for a transfer of `wire_bytes` on
  /// `vci`; null when the VCI layer is disabled.
  overlap::VciChannelClass* vciSlot(int vci, Bytes wire_bytes);

  /// Egress reservation: schedules S wire bytes out of this NIC's channel
  /// `vci` no earlier than `ready` — first behind the channel's own chain
  /// (gap), then behind the node's tx rail c % rails (link-wait when the
  /// rail's previous occupant was a different rank).  Touches only
  /// sender-node state, so it is safe from the posting rank's partition in
  /// parallel runs.  Returns {first_byte_out, last_byte_out}.
  struct TxTimes {
    TimeNs first_byte_out;
    TimeNs last_byte_out;
  };
  TxTimes reserveTx(Bytes wire_bytes, TimeNs ready, int vci);

  /// Ingress arbitration, the second phase of a transfer.  Runs as an
  /// event on *this* (receiving) NIC's rank at the earliest first-byte-in
  /// time (sender's first_byte_out + wire latency): computes the actual
  /// arrival under rx-rail contention (incast-wait when the rail's previous
  /// occupant came from a different node than `src`), updates the rail and
  /// returns the arrival time.  Keeping all rx state changes on the owner's
  /// partition is what makes the wire parallel-safe.
  TimeNs arrive(Rank src, int vci, Bytes wire_bytes);

  void depositCompletion(Completion c, int vci);
  void depositPacket(Packet pkt, int vci);
  /// Tells the fabric's WireObserver (if any) about a work-request post.
  void notifyPost(Rank dst, WorkId id, WorkType type, Bytes wire_bytes,
                  int vci);

  /// Which part of a work request a transmission carries, which decides
  /// where the request completes.  Posted (send / RDMA write): here, at
  /// last byte out (lossless) or at the ack (reliable).  Request (RDMA-read
  /// request): with its Response; a failure completes here.  Response
  /// (RDMA-read data, sent by the target): `deliver` completes the read; a
  /// failure completes on dst, the requester.
  enum class Leg : std::uint8_t { Posted, Request, Response };

  /// Source-capture step of a transmission that reads no host memory.
  struct NoStage { void operator()() const {} };

  /// The one transmit step behind every post.  `stage` captures the source
  /// bytes when the (first) last byte leaves; `deliver(rx, vci)` runs once
  /// on the receiving NIC at arrival (a Packet deliver is deposited in its
  /// receive queue); `notify`, if set, follows the data to that queue.
  /// Lossless, this is a two-phase wire transfer (plus a second one for
  /// `notify`) whose local completion fires at last-byte-out; reliable, it
  /// is one acked ReliableTx whose completion fires at the ack.
  template <class Stage, class Deliver>
  void transmit(Rank dst, int vci, Bytes wire_bytes, Leg leg, Completion work,
                Stage stage, Deliver deliver, const Packet* notify = nullptr);
  /// `deliver` as an arrival step; a Packet becomes a step that deposits
  /// it.  Its box is allocated here, once the local completion is queued:
  /// the registration cache keys on host addresses, so the order of heap
  /// allocations shows in virtual time.
  template <class Deliver>
  static auto arrivalStep(Deliver&& deliver);

  // ---- reliability protocol (fault mode only) ----

  /// One reliable logical transmission: the unit that is acked, timed out
  /// and retransmitted on its channel.  The receiving NIC reads only the
  /// fields fixed at creation and runs `deliver` exactly once (duplicates
  /// are discarded there); the rest, `stage`, `on_acked` and `on_failed`
  /// included, belongs to the sending NIC.
  struct ReliableTx {
    std::int64_t tx_seq = 0;  // unique per sending NIC
    Rank src = -1;
    Rank dst = -1;
    Bytes wire_bytes = 0;
    int vci = 0;
    Leg leg = Leg::Posted;
    int attempt = 0;  // transmissions so far (1 = original)
    DurationNs rto = 0;
    bool acked = false;
    bool failed = false;
    std::function<void()> stage;
    std::function<void(Nic& rx, int vci)> deliver;
    std::function<void()> on_acked;
    std::function<void()> on_failed;
  };

  /// One attempt's fate, rolled by the sender and carried to the receiver
  /// in the arrival event.
  struct Attempt {
    int n = 0;             // attempt number (1 = original)
    DurationNs rto = 0;    // ack-timeout slack armed for this attempt
    DurationNs extra = 0;  // jitter + reorder hold before delivery
    bool dropped = false;
    bool corrupted = false;
    bool duplicated = false;
  };

  /// Sends (or re-sends) `tx`: reserves egress, rolls this attempt's fault
  /// dice, and schedules the attempt's arrival on the receiver.
  void attemptTransmission(const std::shared_ptr<ReliableTx>& tx);
  /// Receiver side of one attempt, at its earliest first-byte-in: ingress
  /// arbitration, the sender's ack timeout, and the deliveries that survive.
  void receiveAttempt(const std::shared_ptr<ReliableTx>& tx, const Attempt& a);
  /// Receiver side: de-duplicates, runs deliver once, always (re-)acks.
  void receiveReliable(const std::shared_ptr<ReliableTx>& tx, int attempt,
                       bool duplicate);
  void onAckTimeout(const std::shared_ptr<ReliableTx>& tx, int attempt);

  Fabric& fabric_;
  Rank owner_;
  RegistrationCache reg_cache_;
  /// Per-channel completion / receive queues; entries carry a per-NIC
  /// deposit stamp so cross-channel polling preserves global deposit order
  /// (bit-identical to the historical single queue).
  std::vector<std::deque<std::pair<std::uint64_t, Completion>>> cq_;
  std::vector<std::deque<std::pair<std::uint64_t, Packet>>> rq_;
  std::uint64_t deposit_seq_ = 0;
  std::size_t cq_size_ = 0;
  std::size_t rq_size_ = 0;
  /// Per-channel egress chain: last_byte_out of the channel's latest
  /// transfer (the per-VCI "send queue" in virtual time).
  std::vector<TimeNs> chan_busy_;
  std::vector<overlap::VciChannelClass> vci_stats_;  // empty unless VCI on
  int rr_next_ = 0;                     // round-robin policy cursor
  int forced_drops_left_ = 0;           // FaultModel::deterministic_drops
  DurationNs tx_wait_ = 0;
  DurationNs rx_wait_ = 0;
  WorkId next_work_ = 1;
  std::int64_t next_tx_seq_ = 1;
  std::int64_t packets_delivered_ = 0;
  Bytes bytes_sent_ = 0;
  overlap::FaultStats fault_counters_;
  /// Rx-side de-duplication: (src rank, tx_seq) pairs already delivered.
  std::unordered_set<std::uint64_t> delivered_tx_;
};

/// The cluster fabric: one NIC per rank plus the shared timing parameters
/// and the owning simulation engine.  Rail (tx/rx serialization) state
/// lives per *node* — with FabricParams::ranks_per_node == 1 that is
/// per-rank, bit-identical to the historical model; with more ranks per
/// node, co-located ranks contend for the node's rails.  Attaching the
/// fabric exports ranks_per_node as the engine's partition alignment, so a
/// node's rail state is only ever touched from one worker thread.
class Fabric {
 public:
  Fabric(sim::Engine& engine, FabricParams params, int nranks);

  [[nodiscard]] Nic& nic(Rank r) { return *nics_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] const FabricParams& params() const { return params_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] int size() const { return static_cast<int>(nics_.size()); }
  [[nodiscard]] int nodes() const { return static_cast<int>(links_.size()); }

  /// Total contended link-wait (tx rail + rx incast) accrued by rank r's
  /// transfers so far; excludes self-serialization (see Nic::linkWaitTx).
  [[nodiscard]] DurationNs linkWait(Rank r) {
    const Nic& n = nic(r);
    return n.linkWaitTx() + n.linkWaitRx();
  }

  /// True when the fault model changes any behaviour (NICs then run the
  /// reliability protocol).
  [[nodiscard]] bool faultEnabled() const { return fault_enabled_; }

  /// Sum of all NICs' fault counters.
  [[nodiscard]] overlap::FaultStats faultTotals() const;

  /// Installs a passive tap on NIC activity (see net/observer.hpp); null
  /// detaches.  Not owned; must outlive the run.  With no observer set the
  /// fabric's behaviour and timing are bit-identical to before.
  void setObserver(WireObserver* o) { observer_ = o; }
  [[nodiscard]] WireObserver* observer() const { return observer_; }

 private:
  friend class Nic;

  /// One physical rail of a node port: when it frees up, and which rank
  /// (tx side) or source node (rx side) last occupied it — the identity
  /// that classifies a later transfer's wait as self (gap) vs contended
  /// (link/incast wait).
  struct Rail {
    TimeNs busy = 0;
    Rank last = -1;
  };

  /// One node's rail sets.  All ranks of a node serialize their wire
  /// traffic through these; the engine's node-aligned partitions keep each
  /// set single-threaded in parallel runs.
  struct NodeLinks {
    std::vector<Rail> tx;
    std::vector<Rail> rx;
  };

  [[nodiscard]] NodeLinks& linksOf(Rank r) {
    return links_[static_cast<std::size_t>(params_.nodeOf(r))];
  }

  /// Physical rail carrying channel `vci` (same mapping on tx and rx).
  [[nodiscard]] int railOf(int vci) const {
    return vci % params_.vci.railCount();
  }

  sim::Engine& engine_;
  FabricParams params_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<NodeLinks> links_;
  WireObserver* observer_ = nullptr;
  bool fault_enabled_ = false;
};

}  // namespace ovp::net
