// Matching-based static deadlock detection.
//
// Complements the dynamic wait-for-graph pass in src/analysis/lint (which
// needs a run that actually hung or stalled): here the dependency graph is
// built from the *unexecuted* skeleton and the static match pairing, so a
// deadlock is found at any rank count before any run exists.
//
// Model: a blocking operation completes only after its matched partner has
// been *posted* (reached in the partner rank's program order), and a rank
// reaches an op only after every earlier blocking op on that rank has
// completed.  Sends block only under the rendezvous protocol (bytes at or
// above the eager limit, mpi::sendsEagerly); eager sends buffer locally and
// never block the sender.
// Barriers synchronize by epoch: the e-th Barrier op on every rank forms
// one epoch, and mismatched per-rank barrier counts are themselves a
// deadlock.  A cycle in this graph is a guaranteed hang of the matched
// schedule.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "skeleton/ir.hpp"
#include "skeleton/match.hpp"

namespace ovp::skel {

struct DeadlockConfig {
  /// Sends below this many bytes use the eager protocol and never block:
  /// the library's rule (mpi::sendsEagerly) and default limit.  Statically
  /// unknown sizes (kAnyBytes) are treated as eager, trading false
  /// positives for false negatives on data-dependent paths.
  Bytes eager_limit = mpi::kEagerLimit;
};

struct DeadlockResult {
  std::vector<analysis::Diagnostic> diagnostics;  // deduped, sorted
  std::int64_t nodes = 0;   // blocking ops considered
  std::int64_t cycles = 0;  // strongly connected components with a cycle
};

/// Runs the cycle search.  `match` must come from runMatch on the same
/// skeleton (its edges provide the partner of every matched half);
/// unmatched halves are skipped here — the matching pass already reports
/// them as errors.
[[nodiscard]] DeadlockResult runDeadlock(const Skeleton& skel,
                                         const MatchResult& match,
                                         const DeadlockConfig& cfg = {});

}  // namespace ovp::skel
