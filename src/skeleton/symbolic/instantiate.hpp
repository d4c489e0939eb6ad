// Lowering a symbolic skeleton template to the unrolled IR at concrete P.
//
// For the converted NAS kernels this IS the concrete skeleton:
// nas::buildNasSkeleton returns instantiate(template, P), so the fixed-P
// checker, the trace-conformance gate and the skeleton goldens read the
// same description the symbolic provers reason about.  Request numbering,
// compute-cost pricing and zero-cost-drop semantics come from
// skel::RankBuilder, shared with the unrolled LU/SP/BT builders.
#pragma once

#include <string>

#include "skeleton/ir.hpp"
#include "skeleton/symbolic/ir.hpp"

namespace ovp::skel::sym {

/// True when P satisfies min_procs and the family guard.  Returns false
/// with a non-empty *why on guard-evaluation errors too.
[[nodiscard]] bool familyAdmits(const SymSkeleton& s, int nprocs,
                                std::string* why);

struct InstantiateResult {
  Skeleton skeleton;
  std::string error;  // non-empty on failure
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Unrolls the template for every rank at job size `nprocs`.  Fails when
/// P is outside the family or any expression fails to evaluate.
[[nodiscard]] InstantiateResult instantiate(const SymSkeleton& s, int nprocs);

}  // namespace ovp::skel::sym
