#include "net/nic.hpp"

#include <cstring>
#include <memory>
#include <type_traits>

#include "net/observer.hpp"

namespace ovp::net {

Nic::Nic(Fabric& fabric, Rank owner)
    : fabric_(fabric),
      owner_(owner),
      reg_cache_(fabric.params(), /*capacity_entries=*/1024) {
  const VciParams& v = fabric_.params().vci;
  const std::size_t channels = static_cast<std::size_t>(v.channelCount());
  cq_.resize(channels);
  rq_.resize(channels);
  chan_busy_.assign(channels, 0);
  forced_drops_left_ = fabric_.params().fault.deterministic_drops;
  if (v.enabled()) {
    vci_stats_.resize(channels * static_cast<std::size_t>(v.classes.count()));
  }
}

int Nic::vciFor(Rank dst, int tag) {
  const VciParams& v = fabric_.params().vci;
  if (!v.enabled()) return 0;
  const int n = v.channels;
  switch (v.policy) {
    case VciPolicy::RoundRobin: {
      const int c = rr_next_;
      rr_next_ = (rr_next_ + 1) % n;
      return c;
    }
    case VciPolicy::PerPeer:
      return static_cast<int>(dst) % n;
    case VciPolicy::Explicit:
      return 0;
    case VciPolicy::TagHash:
      break;
  }
  // Deterministic (dst, tag) mix; tag < 0 (untagged control) hashes the
  // destination alone so a peer's control stream stays on one channel.
  std::uint64_t h =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) *
      0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag + 1)) +
        0x9E3779B9ULL) *
       0xBF58476D1CE4E5B9ULL;
  h ^= h >> 33;
  return static_cast<int>(h % static_cast<std::uint64_t>(n));
}

int Nic::resolveVci(Rank dst, int requested) {
  const VciParams& v = fabric_.params().vci;
  if (!v.enabled()) return 0;
  if (requested >= 0) return requested % v.channels;
  return vciFor(dst, -1);
}

overlap::VciChannelClass* Nic::vciSlot(int vci, Bytes wire_bytes) {
  if (vci_stats_.empty()) return nullptr;
  const overlap::SizeClasses& classes = fabric_.params().vci.classes;
  return &vci_stats_[static_cast<std::size_t>(vci) *
                         static_cast<std::size_t>(classes.count()) +
                     static_cast<std::size_t>(classes.classOf(wire_bytes))];
}

Nic::TxTimes Nic::reserveTx(Bytes wire_bytes, TimeNs ready, int vci) {
  const DurationNs ser = fabric_.params().serialize(wire_bytes);
  // Phase 1: this channel's own egress chain (self backlog = gap).
  TimeNs chan_free = ready;
  TimeNs& chain = chan_busy_[static_cast<std::size_t>(vci)];
  if (chain > chan_free) chan_free = chain;
  // Phase 2: the node's tx rail carrying this channel.  Waiting here is
  // contended link-wait only when the rail's previous occupant was a
  // different rank; otherwise it is still our own serialization (gap).
  Fabric::Rail& rail =
      fabric_.linksOf(owner_).tx[static_cast<std::size_t>(fabric_.railOf(vci))];
  const TimeNs first_out = chan_free > rail.busy ? chan_free : rail.busy;
  const DurationNs rail_wait = first_out - chan_free;
  const DurationNs contended =
      (rail_wait > 0 && rail.last >= 0 && rail.last != owner_) ? rail_wait : 0;
  tx_wait_ += contended;
  if (overlap::VciChannelClass* vs = vciSlot(vci, wire_bytes)) {
    ++vs->posts;
    vs->bytes += wire_bytes;
    vs->gap += (chan_free - ready) + (rail_wait - contended);
    vs->link_wait += contended;
  }
  const TimeNs last_out = first_out + ser;
  chain = last_out;
  rail.busy = last_out;
  rail.last = owner_;
  bytes_sent_ += wire_bytes;
  return TxTimes{first_out, last_out};
}

TimeNs Nic::arrive(Rank src, int vci, Bytes wire_bytes) {
  // Runs as an event on this NIC's rank at the earliest possible
  // first-byte-in time; now() is that instant, so ingress contention is
  // resolved in arrival order, deterministically.
  const FabricParams& p = fabric_.params();
  const DurationNs ser = p.serialize(wire_bytes);
  Fabric::Rail& rail =
      fabric_.linksOf(owner_).rx[static_cast<std::size_t>(fabric_.railOf(vci))];
  const TimeNs now = fabric_.engine().now();
  const TimeNs first_in = now > rail.busy ? now : rail.busy;
  const int src_node = p.nodeOf(src);
  const DurationNs wait = first_in - now;
  // Queued behind an earlier arrival from the same node: the sender's own
  // serialization (gap).  Behind another node's traffic: incast.
  const DurationNs contended =
      (wait > 0 && rail.last >= 0 && rail.last != src_node) ? wait : 0;
  rx_wait_ += contended;
  if (overlap::VciChannelClass* vs = vciSlot(vci, wire_bytes)) {
    ++vs->deliveries;
    vs->gap += wait - contended;
    vs->incast_wait += contended;
  }
  const TimeNs arrival = first_in + ser;
  rail.busy = arrival;
  rail.last = src_node;
  return arrival;
}

// ------------------------------------------------------------- transmit

namespace {

/// Stage step for a transmission out of host memory [src, src+size).
auto stageCopy(std::shared_ptr<std::vector<std::byte>> staged,
               const void* src, Bytes size) {
  return [staged = std::move(staged), src, size] {
    staged->resize(static_cast<std::size_t>(size));
    std::memcpy(staged->data(), src, static_cast<std::size_t>(size));
  };
}

}  // namespace

template <class Deliver>
auto Nic::arrivalStep(Deliver&& deliver) {
  if constexpr (std::is_same_v<std::decay_t<Deliver>, Packet>) {
    auto boxed = std::make_shared<Packet>(std::forward<Deliver>(deliver));
    return [boxed](Nic& rx, int c) { rx.depositPacket(std::move(*boxed), c); };
  } else {
    return std::forward<Deliver>(deliver);
  }
}

template <class Stage, class Deliver>
void Nic::transmit(Rank dst, int vci, Bytes wire_bytes, Leg leg,
                   Completion work, Stage stage, Deliver deliver,
                   const Packet* notify) {
  const FabricParams& p = fabric_.params();
  sim::Engine& eng = fabric_.engine();
  const Bytes notify_wire =
      notify == nullptr ? 0
                        : static_cast<Bytes>(notify->payload.size()) +
                              p.header_bytes;
  if (!fabric_.faultEnabled()) {
    // Two-phase wire: egress is reserved here, ingress is an event on dst's
    // partition.  DMA semantics: the source is captured when the last byte
    // leaves — the instant the host may reuse it — and read on dst no
    // earlier than last_byte_out + L, so the window barrier orders the
    // staged buffer's write and read.
    Nic& peer = fabric_.nic(dst);
    const auto ingress = [&](Bytes wire, TimeNs first_out, auto on_arrival) {
      eng.scheduleFor(dst, first_out + p.wire_latency,
                      [&peer, src = owner_, vci, wire,
                       on_arrival = std::move(on_arrival)]() mutable {
                        peer.fabric_.engine().schedule(
                            peer.arrive(src, vci, wire),
                            [&peer, vci, on_arrival = std::move(on_arrival)]()
                                mutable { on_arrival(peer, vci); });
                      });
    };
    const TxTimes t = reserveTx(wire_bytes, eng.now() + p.nic_setup, vci);
    if (leg == Leg::Posted) {
      eng.schedule(t.last_byte_out,
                   [this, work, vci, stage = std::move(stage)]() mutable {
                     stage();
                     depositCompletion(work, vci);
                   });
    } else if constexpr (!std::is_same_v<Stage, NoStage>) {
      eng.schedule(t.last_byte_out, std::move(stage));
    }
    ingress(wire_bytes, t.first_byte_out, arrivalStep(std::move(deliver)));
    if (notify != nullptr) {
      // Same-QP ordering: the notification follows the data on the same
      // channel.  Its egress slot starts no earlier than the data's
      // last_byte_out, so its rx event lands strictly later and arrive()'s
      // rail chaining keeps delivery behind the data placement.
      const TxTimes nt = reserveTx(notify_wire, eng.now() + p.nic_setup, vci);
      ingress(notify_wire, nt.first_byte_out, arrivalStep(*notify));
    }
    return;
  }

  auto tx = std::make_shared<ReliableTx>();
  tx->tx_seq = next_tx_seq_++;
  tx->src = owner_;
  tx->dst = dst;
  tx->wire_bytes = wire_bytes + notify_wire;
  tx->vci = vci;
  tx->leg = leg;
  tx->rto = p.fault.rto_base;
  if constexpr (!std::is_same_v<Stage, NoStage>) tx->stage = std::move(stage);
  if (notify == nullptr) {
    tx->deliver = arrivalStep(std::move(deliver));
  } else {
    // Data and its notification travel as one reliable transmission:
    // retransmission keeps the data-before-notify order a real go-back-N
    // QP guarantees.
    tx->deliver = [data = arrivalStep(std::move(deliver)),
                   note = arrivalStep(*notify)](Nic& rx, int c) {
      data(rx, c);
      note(rx, c);
    };
  }
  if (leg == Leg::Posted) {
    tx->on_acked = [this, work, vci] { depositCompletion(work, vci); };
  }
  tx->on_failed = [this, dst, leg, work, vci] {
    const Completion failed{work.id, work.type, WorkStatus::RetryExhausted};
    if (leg != Leg::Response) {
      depositCompletion(failed, vci);
      return;
    }
    // The requester owns the read: it learns of the failed data leg by an
    // event on its own domain, one control-packet flight later.
    const FabricParams& fp = fabric_.params();
    sim::Engine& e = fabric_.engine();
    Nic& requester = fabric_.nic(dst);
    e.scheduleFor(dst,
                  e.now() + fp.wire_latency + fp.serialize(fp.header_bytes),
                  [&requester, failed, vci] {
                    requester.depositCompletion(failed, vci);
                  });
  };
  attemptTransmission(tx);
}

// --------------------------------------------- reliability (fault mode)

void Nic::attemptTransmission(const std::shared_ptr<ReliableTx>& tx) {
  const FabricParams& p = fabric_.params();
  const FaultModel& fm = p.fault;
  sim::Engine& eng = fabric_.engine();
  Attempt a;
  a.n = ++tx->attempt;
  ++fault_counters_.attempts;

  // Every attempt — including retransmissions and packets that will be
  // lost — occupies both rails like any other packet.
  const TxTimes t =
      reserveTx(tx->wire_bytes, eng.now() + p.nic_setup, tx->vci);
  if (a.n == 1 && tx->stage) {
    // Source bytes are captured once, at the first attempt's last-byte-out
    // (the DMA engine streams out of application memory; retransmissions
    // replay the staged copy, as the host may not reuse the buffer before
    // its completion).
    eng.schedule(t.last_byte_out, tx->stage);
  }

  // Fault dice: pure functions of this attempt's identity, so the fate of
  // a transmission never depends on unrelated traffic or event order.
  const FaultRates& fr = fm.ratesFor(owner_, tx->dst);
  const auto die = [&](FaultDie d) {
    return fm.uniform(owner_, tx->dst, tx->tx_seq, a.n, d);
  };
  const auto roll = [&](FaultDie d, double rate) {
    return rate > 0 && die(d) < rate;
  };
  const bool forced = tx->leg != Leg::Response && forced_drops_left_ > 0;
  if (forced) --forced_drops_left_;
  a.dropped = forced || roll(FaultDie::Drop, fr.drop);
  a.corrupted = !a.dropped && roll(FaultDie::Corrupt, fr.corrupt);
  a.duplicated =
      !a.dropped && !a.corrupted && roll(FaultDie::Duplicate, fr.duplicate);
  a.extra = fr.jitterFor(die(FaultDie::Jitter));
  if (roll(FaultDie::Reorder, fr.reorder)) {
    // Held back past later traffic on the link: later packets overtake.
    a.extra += fm.reorder_hold > 0 ? fm.reorder_hold : 2 * p.wire_latency;
    ++fault_counters_.reorders;
  }
  if (a.dropped) ++fault_counters_.drops;
  if (a.duplicated) ++fault_counters_.duplicates;

  // The slack doubles per retransmission so congested paths back off.
  a.rto = tx->rto;
  tx->rto = std::min<DurationNs>(
      fm.rto_max,
      static_cast<DurationNs>(static_cast<double>(tx->rto) * fm.rto_backoff));
  Nic& peer = fabric_.nic(tx->dst);
  eng.scheduleFor(tx->dst, t.first_byte_out + p.wire_latency,
                  [&peer, tx, a] { peer.receiveAttempt(tx, a); });
}

void Nic::receiveAttempt(const std::shared_ptr<ReliableTx>& tx,
                         const Attempt& a) {
  const FabricParams& p = fabric_.params();
  sim::Engine& eng = fabric_.engine();
  const TimeNs deliver_at = arrive(tx->src, tx->vci, tx->wire_bytes) + a.extra;

  // The sender's ack timeout, anchored at this attempt's actual arrival
  // plus the ack's flight time plus the backed-off slack.  Armed from here
  // it lies at least one ack flight (>= one lookahead) ahead.
  const DurationNs ack_flight = p.wire_latency + p.serialize(p.header_bytes);
  Nic& sender = fabric_.nic(tx->src);
  eng.scheduleFor(tx->src, deliver_at + ack_flight + a.rto,
                  [&sender, tx, n = a.n] { sender.onAckTimeout(tx, n); });

  if (a.dropped) return;
  if (a.corrupted) {
    // Fully received, then CRC-discarded: no delivery, no ack.
    ++fault_counters_.corrupt_drops;
    return;
  }
  eng.schedule(deliver_at,
               [this, tx, n = a.n] { receiveReliable(tx, n, false); });
  if (a.duplicated) {
    eng.schedule(deliver_at + p.serialize(tx->wire_bytes),
                 [this, tx, n = a.n] { receiveReliable(tx, n, true); });
  }
}

void Nic::receiveReliable(const std::shared_ptr<ReliableTx>& tx, int attempt,
                          bool duplicate) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tx->src)) << 40) |
      static_cast<std::uint64_t>(tx->tx_seq);
  if (delivered_tx_.insert(key).second) {
    tx->deliver(*this, tx->vci);
  } else {
    ++fault_counters_.dup_discards;
  }
  // Always ack, even duplicates: the original ack may have been lost.  Acks
  // ride a dedicated control channel (latency + header serialization +
  // jitter, no data-rail contention) and can be lost too.
  const FabricParams& p = fabric_.params();
  const FaultModel& fm = p.fault;
  const FaultRates& fr = fm.ratesFor(owner_, tx->src);
  const auto die = [&](FaultDie d) {
    return fm.uniform(tx->src, tx->dst, tx->tx_seq, attempt, d);
  };
  if (fr.drop > 0 &&
      die(duplicate ? FaultDie::DupAckDrop : FaultDie::AckDrop) < fr.drop) {
    ++fault_counters_.acks_dropped;
    return;
  }
  ++fault_counters_.acks_sent;
  const DurationNs extra = fr.jitterFor(
      die(duplicate ? FaultDie::DupAckJitter : FaultDie::AckJitter));
  sim::Engine& eng = fabric_.engine();
  eng.scheduleFor(
      tx->src, eng.now() + p.wire_latency + p.serialize(p.header_bytes) + extra,
      [tx] {  // the ack lands on the sender
        if (tx->acked || tx->failed) return;
        tx->acked = true;
        if (tx->on_acked) tx->on_acked();
      });
}

void Nic::onAckTimeout(const std::shared_ptr<ReliableTx>& tx, int attempt) {
  // Stale timer: the tx was acked, already failed, or a newer attempt has
  // its own timer armed.
  if (tx->acked || tx->failed || tx->attempt != attempt) return;
  ++fault_counters_.timeouts;
  if (fabric_.observer_ != nullptr) {
    fabric_.observer_->onTimeout(owner_, tx->tx_seq, attempt,
                                 fabric_.engine().now());
  }
  if (tx->attempt > fabric_.params().fault.max_retries) {
    tx->failed = true;
    ++fault_counters_.retry_exhausted;
    tx->on_failed();
    return;
  }
  ++fault_counters_.retransmissions;
  if (fabric_.observer_ != nullptr) {
    fabric_.observer_->onRetransmit(owner_, tx->dst, tx->tx_seq,
                                    tx->attempt + 1, tx->wire_bytes,
                                    fabric_.engine().now());
  }
  attemptTransmission(tx);
}

// -------------------------------------------------------- work requests

WorkId Nic::postSend(Rank dst, Packet pkt, int vci) {
  const Bytes wire =
      static_cast<Bytes>(pkt.payload.size()) + fabric_.params().header_bytes;
  const WorkId id = next_work_++;
  const int ch = resolveVci(dst, vci);
  notifyPost(dst, id, WorkType::Send, wire, ch);
  transmit(dst, ch, wire, Leg::Posted, {id, WorkType::Send}, NoStage{},
           std::move(pkt));
  return id;
}

WorkId Nic::postRdmaWrite(Rank dst, const void* src, void* dst_ptr, Bytes size,
                          const Packet* notify, int vci) {
  const Bytes wire = size + fabric_.params().header_bytes;
  const WorkId id = next_work_++;
  const int ch = resolveVci(dst, vci);
  notifyPost(dst, id, WorkType::RdmaWrite, wire, ch);
  auto staged = std::make_shared<std::vector<std::byte>>();
  transmit(dst, ch, wire, Leg::Posted, {id, WorkType::RdmaWrite},
           stageCopy(staged, src, size),
           [staged, dst_ptr, size](Nic&, int) {
             std::memcpy(dst_ptr, staged->data(),
                         static_cast<std::size_t>(size));
           },
           notify);
  return id;
}

WorkId Nic::postRdmaApply(
    Rank dst, const void* src, void* dst_ptr, Bytes size,
    std::function<void(const std::byte* staged, void* dst, Bytes n)> apply,
    int vci) {
  const Bytes wire = size + fabric_.params().header_bytes;
  const WorkId id = next_work_++;
  const int ch = resolveVci(dst, vci);
  notifyPost(dst, id, WorkType::RdmaWrite, wire, ch);
  auto staged = std::make_shared<std::vector<std::byte>>();
  auto boxed_apply = std::make_shared<decltype(apply)>(std::move(apply));
  // Under the fault model, receiver de-duplication makes the target-side
  // combine exactly-once, which keeps accumulate semantics correct.
  transmit(dst, ch, wire, Leg::Posted, {id, WorkType::RdmaWrite},
           stageCopy(staged, src, size),
           [staged, boxed_apply, dst_ptr, size](Nic&, int) {
             (*boxed_apply)(staged->data(), dst_ptr, size);
           });
  return id;
}

WorkId Nic::postRdmaRead(Rank target, void* local_dst, const void* remote_src,
                         Bytes size, int vci) {
  const Bytes header = fabric_.params().header_bytes;
  const WorkId id = next_work_++;
  const int ch = resolveVci(target, vci);
  notifyPost(target, id, WorkType::RdmaRead, size + header, ch);
  // The read request travels to the target NIC; at its delivery the
  // target's DMA engine streams the data back on the same channel, with no
  // target-host involvement whatsoever (this is what makes RDMA Read
  // rendezvous fully overlappable for the sender-side process).  The
  // requester's completion lands with the data.
  transmit(
      target, ch, header, Leg::Request, {id, WorkType::RdmaRead}, NoStage{},
      [requester = owner_, id, local_dst, remote_src, size](Nic& rx, int c) {
        auto staged = std::make_shared<std::vector<std::byte>>();
        rx.transmit(requester, c, size + rx.fabric_.params().header_bytes,
                    Leg::Response, {id, WorkType::RdmaRead},
                    stageCopy(staged, remote_src, size),
                    [id, staged, local_dst, size](Nic& req, int rc) {
                      std::memcpy(local_dst, staged->data(),
                                  static_cast<std::size_t>(size));
                      req.depositCompletion({id, WorkType::RdmaRead}, rc);
                    });
      });
  return id;
}

bool Nic::pollCompletion(Completion& out) {
  if (cq_size_ == 0) return false;
  std::deque<std::pair<std::uint64_t, Completion>>* best = nullptr;
  for (auto& q : cq_) {
    if (q.empty()) continue;
    if (best == nullptr || q.front().first < best->front().first) best = &q;
  }
  out = best->front().second;
  best->pop_front();
  --cq_size_;
  return true;
}

std::size_t Nic::drainCompletions(std::vector<Completion>& out) {
  const std::size_t n = cq_size_;
  if (cq_.size() == 1) {
    for (const auto& e : cq_[0]) out.push_back(e.second);
    cq_[0].clear();
    cq_size_ = 0;
    return n;
  }
  Completion c;
  while (pollCompletion(c)) out.push_back(c);
  return n;
}

bool Nic::pollRecv(Packet& out) {
  if (rq_size_ == 0) return false;
  std::deque<std::pair<std::uint64_t, Packet>>* best = nullptr;
  for (auto& q : rq_) {
    if (q.empty()) continue;
    if (best == nullptr || q.front().first < best->front().first) best = &q;
  }
  out = std::move(best->front().second);
  best->pop_front();
  --rq_size_;
  return true;
}

void Nic::notifyPost(Rank dst, WorkId id, WorkType type, Bytes wire_bytes,
                     int vci) {
  if (fabric_.observer_ != nullptr) {
    fabric_.observer_->onPost(owner_, dst, id, type, wire_bytes, vci,
                              fabric_.engine().now());
  }
}

void Nic::depositCompletion(Completion c, int vci) {
  if (fabric_.observer_ != nullptr) {
    fabric_.observer_->onComplete(owner_, c, fabric_.engine().now());
  }
  cq_[static_cast<std::size_t>(vci)].emplace_back(deposit_seq_++, c);
  ++cq_size_;
  fabric_.engine().wake(owner_);
}

void Nic::depositPacket(Packet pkt, int vci) {
  ++packets_delivered_;
  rq_[static_cast<std::size_t>(vci)].emplace_back(deposit_seq_++,
                                                  std::move(pkt));
  ++rq_size_;
  fabric_.engine().wake(owner_);
}

Fabric::Fabric(sim::Engine& engine, FabricParams params, int nranks)
    : engine_(engine),
      params_(params),
      fault_enabled_(params_.fault.enabled()) {
  engine_.setLookahead(params_.lookahead());
  if (params_.ranks_per_node < 1) params_.ranks_per_node = 1;
  if (params_.vci.channels < 0) params_.vci.channels = 0;
  if (params_.vci.rails < 1) params_.vci.rails = 1;
  // Node-aligned partitions keep each node's rail set on one worker.
  engine_.setPartitionAlign(params_.ranks_per_node);
  const std::size_t nnodes = static_cast<std::size_t>(
      nranks > 0 ? params_.nodeOf(nranks - 1) + 1 : 0);
  links_.resize(nnodes);
  const std::size_t rails = static_cast<std::size_t>(params_.vci.railCount());
  for (NodeLinks& l : links_) {
    l.tx.resize(rails);
    l.rx.resize(rails);
  }
  nics_.reserve(static_cast<std::size_t>(nranks));
  for (Rank r = 0; r < nranks; ++r) {
    nics_.push_back(std::unique_ptr<Nic>(new Nic(*this, r)));
  }
}

overlap::FaultStats Fabric::faultTotals() const {
  overlap::FaultStats total;
  for (const auto& nic : nics_) total += nic->fault_counters_;
  return total;
}

}  // namespace ovp::net
