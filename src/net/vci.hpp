// Multi-VCI (virtual channel interface) configuration for the NIC model.
//
// "Breaking Band" (PAPERS.md) decomposes modern RDMA performance into
// per-channel (QP/VCI) costs: a host posts work onto one of several
// virtual channel interfaces, each with its own send/recv/completion
// queues, and the channels contend for a small number of physical rails.
// VciParams configures that layer: how many channels a NIC exposes, how
// posts are assigned to channels, how many physical rails a node's port
// has, and the message-size classes of the per-channel LogGP report
// breakdown (overlap::VciStats).
//
// channels == 0 (the default) disables the layer entirely: the NIC runs a
// single implicit channel and its timing, report bytes, and trace output
// are bit-identical to the historical single-queue model.
#pragma once

#include <string>
#include <string_view>

#include "overlap/size_classes.hpp"
#include "util/types.hpp"

namespace ovp::net {

/// How a work-request post without an explicit channel picks its VCI.
enum class VciPolicy {
  /// Deterministic hash of (destination, tag); posts of one (peer, tag)
  /// stream always share a channel, preserving MPI non-overtaking even
  /// across multiple rails.  The default.
  TagHash,
  /// Per-NIC rotating counter.  Rank-local and deterministic, but
  /// consecutive same-(peer, tag) posts land on different channels — with
  /// more than one rail they can be reordered on the wire (documented
  /// caveat; the MPI layer above still matches by tag).
  RoundRobin,
  /// destination rank modulo channel count.
  PerPeer,
  /// Callers pass the channel explicitly; unspecified posts use channel 0.
  Explicit,
};

struct VciParams {
  /// Number of virtual channel interfaces per NIC; 0 disables the layer.
  int channels = 0;
  /// Physical rails per node port.  Channel c maps to rail c % rails on
  /// both the egress and ingress side; rails == 1 keeps wire timing
  /// bit-identical to the single-port model for any channel count.
  int rails = 1;
  VciPolicy policy = VciPolicy::TagHash;
  /// Wire-size classes of the per-channel report rows.  parse() seeds the
  /// paper-style short/long split at 16 KiB.
  overlap::SizeClasses classes;

  [[nodiscard]] bool enabled() const { return channels > 0; }
  [[nodiscard]] int channelCount() const { return channels > 0 ? channels : 1; }
  [[nodiscard]] int railCount() const { return rails > 0 ? rails : 1; }

  /// Parses a `--ovprof-vci=N[,policy]` spec ("2", "4,round-robin", ...)
  /// into `out` (leaving rails untouched) and seeds the default size
  /// classes.  Returns false, with `out` unspecified, on a malformed spec.
  static bool parse(std::string_view spec, VciParams& out);

  static const char* policyName(VciPolicy p);
  static bool parsePolicy(std::string_view name, VciPolicy& out);
};

}  // namespace ovp::net
