// Rank-symbolic skeleton IR.
//
// Where `skel::Skeleton` stores one fully unrolled op list per concrete
// rank, a `SymSkeleton` stores a single *template*: a tree of loops
// (symbolic iteration domains), guarded blocks (rank-role case splits like
// "r == root" or "cx >= 1"), and ops whose peers/tags/bytes/flops are Expr
// trees over the symbolic rank `r`, the job size `P`, and enclosing loop
// variables.  One template describes the behaviour of every rank at every
// admissible job size; `instantiate()` (instantiate.hpp) lowers it to the
// unrolled IR for a concrete P.
//
// Semantics notes:
//  * Request management is implicit.  Isend/Irecv open requests; a Waitall
//    node retires *all* requests opened since the previous Waitall (in
//    emission order).  Every template in this repo follows that discipline,
//    so the symbolic IR does not carry request-id expressions at all, and
//    a Wait node is invalid.
//  * Sendrecv is concrete-only: no template emits the fused exchange, so
//    validateSym rejects it too.  `.skel` files and RankBuilder keep it.
//  * Compute nodes carry a flop-count expression; instantiation prices it
//    through the same CostModel as the concrete builders (so the
//    double-rounding behaviour matches exactly).
//  * A `family` guard over P (no `r`, no loop vars) names the admissible
//    job sizes, e.g. "(nx % P) == 0" for FT's slab distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "skeleton/ir.hpp"
#include "skeleton/symbolic/expr.hpp"

namespace ovp::skel::sym {

enum class SymNodeKind : std::uint8_t {
  Op,    // one communication/compute op with symbolic fields
  Loop,  // counted loop over an affine range
  If,    // guarded block (conjunction of Cond atoms)
};

struct SymNode;
using SymNodeP = std::unique_ptr<SymNode>;

struct SymNode {
  SymNodeKind node = SymNodeKind::Op;

  // -- Op payload --
  OpKind op = OpKind::Compute;
  ExprP peer;    // dst for sends/puts/gets/fence, src for recvs
  ExprP tag;     // message tag
  ExprP bytes;   // payload bytes; -1 = wildcard
  ExprP flops;   // Compute only: flop count fed through the CostModel
  bool nb = false;  // RmaPut/RmaGet: non-blocking flavour
  std::string site;  // source-site label, same vocabulary as skel::Op

  // -- Loop payload --
  std::string lvar;  // loop variable name (bound in body)
  ExprP begin;       // forward: first value; backward: first (largest) value
  ExprP end;         // forward: exclusive bound; backward: inclusive bound
  bool forward = true;  // forward: v = begin; v < end; ++v
                        // backward: v = begin; v >= end; --v

  // -- If payload --
  Guard guard;

  std::vector<SymNodeP> body;  // Loop / If children
};

/// A whole symbolic kernel template.
struct SymSkeleton {
  std::string name;
  double ns_per_flop = 0.5;  // CostModel used when pricing Compute nodes
  int min_procs = 1;
  /// Admissible job sizes: conjunction over P only (empty = every
  /// P >= min_procs).  Builders must keep `r` and loop vars out of it.
  Guard family;
  std::vector<SymNodeP> body;

  /// Total node count (loops/ifs/ops), mostly for reporting.
  [[nodiscard]] std::int64_t totalNodes() const;
};

// -- construction helpers (used by SymBuilder and tests) --
[[nodiscard]] SymNodeP makeOpNode();
[[nodiscard]] SymNodeP makeLoopNode(std::string lvar, ExprP begin, ExprP end,
                                    bool forward);
[[nodiscard]] SymNodeP makeIfNode(Guard guard);

/// Deterministic text rendering of the template (`# ovprof-symskel-template-v1`).
/// Used for goldens; not round-tripped (the symbolic form is built in
/// code, only cost terms are serialized for other tools).
[[nodiscard]] std::string symSkeletonToString(const SymSkeleton& s);

/// Structural sanity: loop vars unique along each path, guard/loop-bound
/// expressions only reference bound vars, Wait/Sendrecv ops absent, family
/// guard mentions neither `r` nor loop vars.  Empty string = OK.
[[nodiscard]] std::string validateSym(const SymSkeleton& s);

}  // namespace ovp::skel::sym
