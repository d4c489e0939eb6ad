// Symbolic matching and deadlock-freedom proofs over a SymSkeleton.
//
// Where src/skeleton/match.cpp pairs concrete op instances at one rank
// count, this pass pairs *term families*: each send/receive site in the
// template, together with its enclosing loops and guards, stands for a
// family of op instances parameterized by (r, P, loop vars).  Matching for
// every admissible P at once is proven by normalizing peer expressions and
// case-splitting on guards against a small set of lemmas, one per
// communication idiom the templates emit:
//
//   ring          sends to mod(r + d, P) over d in [1, P) pair with
//                 receives from mod(r + e, P) under the bijection
//                 (r, d) -> (mod(r + d, P), P - d); bytes may depend on
//                 the peer rank (segmented rings size by the sender's
//                 block).
//   tree          binomial parent links (guard vr mod 2^(k+1) == 2^k, peer
//                 vr -/+ 2^k) pair with child links (guard vr mod 2^(k+1)
//                 == 0 && vr + 2^k < P) over the level range
//                 [0, clog2(P)); this is bcast and reduce in both
//                 directions.
//   halo-dual     the six face-exchange directions of the fac3 grid pair
//                 as d <-> d^1 under coordinate-guard duality
//                 (cx >= 1 at r  <=>  cx <= px - 2 at r - 1).
//
// The lemmas themselves are proven once, on paper, in DESIGN.md 5.16; the
// code checks that a term pair has exactly the lemma's shape (structural
// expression equality after normalization), so a successful run is a proof
// for the whole rank-count family, not a sample.  Terms outside every
// schema degrade honestly: SYM_MATCH_UNPROVEN (warning) when a
// tag-compatible partner exists, SYM_UNMATCHED_SEND/RECV (error) when none
// can.  An idiom no template emits has no lemma here; it returns together
// with its first template.
//
// Deadlock-freedom reuses the matching proof: nonblocking post regions
// cannot hang, proven tree pairings are acyclic by construction, and
// barriers/fences demand rank-independent guards (SYM_BARRIER_DIVERGENCE
// otherwise).  Blocking structure outside those fragments is
// SYM_DEADLOCK_UNPROVEN; a bounded sweep of concrete instantiations then
// tries to upgrade the warning to SYM_DEADLOCK_CYCLE, naming the rank
// counts (the family) that exhibit the cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "skeleton/symbolic/ir.hpp"

namespace ovp::skel::sym {

/// One proved pairing: which lemma covered which send/receive term family.
struct SymProofStep {
  std::string rule;       // "ring", "tree", "halo-dual"
  std::string send_site;  // site label of the send-side term
  std::string recv_site;
  std::string detail;     // normalized peer/offset forms, for the report
};

struct SymVerifyResult {
  std::vector<analysis::Diagnostic> diagnostics;  // deduped, ranked
  std::vector<SymProofStep> proof;

  std::int64_t send_terms = 0;
  std::int64_t recv_terms = 0;
  std::int64_t matched_pairs = 0;
  std::int64_t blocking_terms = 0;  // blocking Send/Recv term families
  std::int64_t collective_terms = 0;  // Barrier/Fence op sites

  /// Every send/receive family is covered by a lemma and byte counts
  /// agree: matching holds at every admissible P.
  bool matching_proven = false;
  /// All blocking structure falls in the safe fragments (given matching).
  bool deadlock_proven = false;
  /// Printable rank-count family ("P >= 1", "P >= 1 with (32 % P) == 0").
  std::string family;

  [[nodiscard]] bool clean() const {
    return analysis::clean(diagnostics);
  }
};

/// Runs both provers.  The skeleton must pass validateSym first; invalid
/// input yields a single error diagnostic.  When either proof fails, a
/// witness sweep instantiates the first 12 admissible P up to 64 and runs
/// the concrete match + deadlock passes to name a failing family.
[[nodiscard]] SymVerifyResult verifySymbolic(const SymSkeleton& s);

/// Renders the proof log + diagnostics as the ovprof_check text report
/// section.
void printSymVerifyText(const SymVerifyResult& r, std::ostream& os);

}  // namespace ovp::skel::sym
