// Deterministic fault-injection model for the simulated fabric, plus the
// NIC-level reliability protocol that keeps the message-passing libraries
// correct on a lossy wire.
//
// The paper's instrumentation (and its overlap bounds, Sec. 2.3) assume a
// lossless fabric.  Real interconnect critical paths diverge from that
// ideal exactly when transfers are delayed or retried, so the fault model
// lets every existing workload double as a robustness scenario: packets on
// a link can be dropped, corrupted (received but CRC-discarded), duplicated,
// delayed (uniform jitter) or reordered (held back so later packets
// overtake).  Every die is a pure hash of (seed, src, dst, transmission id,
// attempt, purpose), so a given (FabricParams, seed) pair replays
// bit-identically in any event order, at any engine worker count.
//
// When any fault knob is active the NICs switch to a reliable-delivery
// protocol: each work request is acknowledged by the receiving NIC, the
// sender retransmits on an exponentially backed-off timeout, receivers
// de-duplicate by transmission id (and re-ack, covering lost acks), and a
// work request whose retries are exhausted surfaces a RetryExhausted
// completion through the CQ.  With every knob at zero the local completion
// fires at last-byte-out and timing is bit-identical to the pre-fault model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace ovp::net {

/// Per-link fault probabilities and delay bounds.
struct FaultRates {
  double drop = 0.0;       // P(packet lost in flight)
  double corrupt = 0.0;    // P(packet received but fails CRC; discarded)
  double duplicate = 0.0;  // P(NIC delivers the packet twice)
  double reorder = 0.0;    // P(packet held back so later packets overtake)
  DurationNs jitter = 0;   // max uniform extra latency per attempt

  /// Extra latency in [0, jitter] for a die in [0, 1).
  [[nodiscard]] DurationNs jitterFor(double die) const {
    return std::min(jitter, static_cast<DurationNs>(
                                die * static_cast<double>(jitter + 1)));
  }

  [[nodiscard]] bool any() const {
    return drop > 0 || corrupt > 0 || duplicate > 0 || reorder > 0 ||
           jitter > 0;
  }
};

/// Overrides the fabric-wide rates on one directed link.
struct LinkFault {
  Rank src = -1;
  Rank dst = -1;
  FaultRates rates;
};

/// What a fault die decides; the DupAck* dice roll for the ack of a
/// duplicated delivery.
enum class FaultDie : std::uint8_t {
  Drop, Corrupt, Duplicate, Reorder, Jitter,
  AckDrop, AckJitter, DupAckDrop, DupAckJitter,
};

struct FaultModel {
  /// Fabric-wide default rates; `links` overrides per directed link
  /// (first match wins).
  FaultRates rates;
  std::vector<LinkFault> links;

  /// Seed of every fault die (see uniform()): (params, seed) ->
  /// bit-identical replay.
  std::uint64_t seed = 1;

  // ---- reliability protocol ----
  /// Retransmissions allowed per work request before RetryExhausted.
  int max_retries = 8;
  /// Initial ack-timeout slack beyond the attempt's known arrival + ack
  /// flight time; doubles (rto_backoff) per retransmission up to rto_max.
  DurationNs rto_base = 4000;
  double rto_backoff = 2.0;
  DurationNs rto_max = msec(80);
  /// Extra hold applied to reordered packets; 0 derives 2x wire latency.
  DurationNs reorder_hold = 0;

  // ---- deterministic test hooks ----
  /// Each NIC drops its first N attempts of host-posted transmissions (not
  /// RDMA-read data legs) regardless of rates: targeted retransmission
  /// tests without probability tuning.
  int deterministic_drops = 0;
  /// Run the ack/retransmit protocol even with all rates zero.
  bool force_reliable = false;

  /// True when any behaviour differs from the lossless fabric.
  [[nodiscard]] bool enabled() const {
    if (rates.any() || deterministic_drops > 0 || force_reliable) return true;
    for (const LinkFault& l : links) {
      if (l.rates.any()) return true;
    }
    return false;
  }

  /// Rates governing packets from src to dst.
  [[nodiscard]] const FaultRates& ratesFor(Rank src, Rank dst) const {
    for (const LinkFault& l : links) {
      if (l.src == src && l.dst == dst) return l.rates;
    }
    return rates;
  }

  /// The die for `purpose` on attempt `attempt` of transmission `tx_seq`
  /// from src to dst: uniform in [0, 1) and a pure function of its
  /// arguments and `seed`.
  [[nodiscard]] double uniform(Rank src, Rank dst, std::int64_t tx_seq,
                               int attempt, FaultDie purpose) const;

  /// Parses a --ovprof-fault= spec: comma-separated key=value pairs from
  /// {drop, corrupt, dup, reorder, jitter, seed, retries, rto}; a bare
  /// number is shorthand for drop=<number>.  Returns false (leaving `out`
  /// untouched) on malformed input.  Example: "drop=0.05,jitter=2000,seed=7".
  static bool parse(std::string_view spec, FaultModel& out);

  /// One-line human-readable summary of the active knobs.
  [[nodiscard]] std::string describe() const;
};

}  // namespace ovp::net
