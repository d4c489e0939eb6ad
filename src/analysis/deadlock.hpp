// Wait-for-graph deadlock / stall analysis over matched send/recv records.
//
// The pairs are trace::matchMessages' MessageEdges, the one send/recv
// pairing.  A post is released at the first CALL_EXIT at or after it in
// time: the ring holds monitor-origin records in drain batches, so ring
// order does not say which call a post sits in.  Each pair gives directed
// wait-for edges between ranks:
//
//   * sender side: A waits on B over [send_post, min(release, B's
//     recv_post)) — A is blocked in the call while B has not yet posted the
//     receive.  A sendrecv-style exchange posts the receive first, so the
//     interval is empty: head-to-head sendrecv never false-positives.
//   * receiver side: B waits on A over [recv_post, min(release, A's
//     send_post)), unless the receive named no source.
//
// A post no message matched waits on its named peer until its release.  An
// edge that never closes is *open*.  On a rank whose ring dropped records an
// unreleased post makes no edge: its release may be among the drops.  A
// cycle among open edges is a deadlock: every rank on it is provably blocked
// forever in the recorded schedule — an Error, reported once per cycle.
// Long but closed mutual-wait chains of three or more ranks (head-of-line
// blocking) are Notes: the schedule made progress, but serialization
// rippled across ranks.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "trace/collector.hpp"
#include "trace/critical_path.hpp"

namespace ovp::analysis {

/// `messages` is matchMessages(c).  Chain notes consider closed edges of at
/// least 50 us, only the 256 longest of them, and stop after 4 notes.
[[nodiscard]] std::vector<Diagnostic> analyzeWaitFor(
    const trace::Collector& c, const std::vector<trace::MessageEdge>& messages);

}  // namespace ovp::analysis
