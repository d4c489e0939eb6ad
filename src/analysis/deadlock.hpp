// Wait-for-graph deadlock / stall analysis over matched send/recv records.
//
// Replays MPI's non-overtaking matching over the trace (k-th SEND_POST from
// src to dst under a tag pairs with dst's k-th RECV_POST naming src and the
// tag) and derives directed wait-for edges between ranks:
//
//   * sender side: A waits on B over [send_post, min(next CALL_EXIT on A,
//     B's matching recv_post)) — A is blocked in the call while B has not
//     yet posted the receive.  A sendrecv-style exchange posts the receive
//     first, so its matching recv_post precedes the send_post and the
//     interval is empty: head-to-head sendrecv never false-positives.
//   * receiver side: B waits on A over [recv_post, min(next CALL_EXIT on B,
//     A's send_post)).
//
// An edge whose interval never closes (the call never exits and the peer
// never acts before the trace ends) is *open*.  A cycle among open edges is
// a deadlock: every rank on it is provably blocked forever in the recorded
// schedule — an Error.  Long but closed mutual-wait chains of three or more
// ranks (head-of-line blocking) are reported as Notes: the schedule made
// progress, but serialization rippled across ranks.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "trace/collector.hpp"

namespace ovp::analysis {

/// Chain notes consider closed edges of at least 50 us, only the 256
/// longest of them, and stop after 4 notes.
[[nodiscard]] std::vector<Diagnostic> analyzeWaitFor(const trace::Collector& c);

}  // namespace ovp::analysis
