// The NIC's counter blocks, in the form the per-process report carries.
//
// The simulated NIC (net/nic.hpp) counts straight into these structs and
// the machine layer copies them onto each rank's Report, so a counter
// exists once, from the wire to the saved file.  They live apart from
// report.hpp so the NIC does not pull in the report and its I/O.
#pragma once

#include <cstdint>

namespace ovp::overlap {

/// Fault-injection / NIC-reliability counters (net::FaultModel).  All zero
/// on a lossless fabric, where the report omits them.  Tx-side events
/// (drops, retransmissions, timeouts, retry exhaustion) count on the
/// sending NIC; rx-side events (CRC discards, duplicate discards, acks) on
/// the receiving NIC.
struct FaultStats {
  std::int64_t attempts = 0;         // data transmissions incl. retransmits
  std::int64_t drops = 0;            // packets lost in flight
  std::int64_t corrupt_drops = 0;    // packets CRC-discarded at receiver
  std::int64_t duplicates = 0;       // extra deliveries injected
  std::int64_t dup_discards = 0;     // rx-side de-duplication hits
  std::int64_t reorders = 0;         // packets held back past later traffic
  std::int64_t retransmissions = 0;  // timeout-driven re-sends
  std::int64_t timeouts = 0;         // ack timeouts fired
  std::int64_t retry_exhausted = 0;  // work requests failed through the CQ
  std::int64_t acks_sent = 0;
  std::int64_t acks_dropped = 0;

  [[nodiscard]] bool any() const {
    return attempts != 0 || drops != 0 || corrupt_drops != 0 ||
           duplicates != 0 || dup_discards != 0 || reorders != 0 ||
           retransmissions != 0 || timeouts != 0 || retry_exhausted != 0 ||
           acks_sent != 0 || acks_dropped != 0;
  }

  FaultStats& operator+=(const FaultStats& o) {
    attempts += o.attempts;
    drops += o.drops;
    corrupt_drops += o.corrupt_drops;
    duplicates += o.duplicates;
    dup_discards += o.dup_discards;
    reorders += o.reorders;
    retransmissions += o.retransmissions;
    timeouts += o.timeouts;
    retry_exhausted += o.retry_exhausted;
    acks_sent += o.acks_sent;
    acks_dropped += o.acks_dropped;
    return *this;
  }

  /// What a counter snapshot gained since an earlier snapshot `o`.
  FaultStats& operator-=(const FaultStats& o) {
    attempts -= o.attempts;
    drops -= o.drops;
    corrupt_drops -= o.corrupt_drops;
    duplicates -= o.duplicates;
    dup_discards -= o.dup_discards;
    reorders -= o.reorders;
    retransmissions -= o.retransmissions;
    timeouts -= o.timeouts;
    retry_exhausted -= o.retry_exhausted;
    acks_sent -= o.acks_sent;
    acks_dropped -= o.acks_dropped;
    return *this;
  }
};

/// One (virtual channel, size class) row of the per-channel LogGP wire
/// accounting (net::VciParams).  Tx fields (posts, bytes, gap, link_wait)
/// accrue on the sending NIC per wire transfer; rx fields (deliveries,
/// incast_wait and the rx share of gap) on the NIC whose ingress rail the
/// transfer occupied.  Under the fault model every attempt, dropped ones
/// included, occupies the wire and is counted.  The NIC spends no host
/// time, so it leaves o_send and o_recv at zero; the machine layer derives
/// them from the fabric's post/poll costs.
struct VciChannelClass {
  std::int64_t posts = 0;       // wire transfers sent on this channel/class
  std::int64_t deliveries = 0;  // wire transfers received
  std::int64_t bytes = 0;       // wire bytes sent
  std::int64_t o_send = 0;      // derived: posts * post_overhead (ns)
  std::int64_t o_recv = 0;      // derived: deliveries * cq_poll_cost (ns)
  std::int64_t gap = 0;         // wait behind own/same-source backlog (ns)
  std::int64_t link_wait = 0;   // egress wait behind other ranks (ns)
  std::int64_t incast_wait = 0;  // ingress wait behind other nodes (ns)

  [[nodiscard]] bool any() const {
    return posts != 0 || deliveries != 0 || bytes != 0 || o_send != 0 ||
           o_recv != 0 || gap != 0 || link_wait != 0 || incast_wait != 0;
  }

  VciChannelClass& operator+=(const VciChannelClass& o) {
    posts += o.posts;
    deliveries += o.deliveries;
    bytes += o.bytes;
    o_send += o.o_send;
    o_recv += o.o_recv;
    gap += o.gap;
    link_wait += o.link_wait;
    incast_wait += o.incast_wait;
    return *this;
  }

  VciChannelClass& operator-=(const VciChannelClass& o) {
    posts -= o.posts;
    deliveries -= o.deliveries;
    bytes -= o.bytes;
    o_send -= o.o_send;
    o_recv -= o.o_recv;
    gap -= o.gap;
    link_wait -= o.link_wait;
    incast_wait -= o.incast_wait;
    return *this;
  }
};

}  // namespace ovp::overlap
