// Static communication skeletons of the NAS kernel reproductions.
//
// A skeleton is the exact per-rank op sequence its kernel executes — same
// peers, same tags, same byte counts, same collective decompositions — but
// built *without running the simulator*: a declarative skel::Skeleton that
// ovprof_check analyzes statically (matching, deadlock, overlap windows)
// and that live traces are conformance-checked against.
//
// Each kernel's communication is described once.  cg, ep, ft, is and mg
// are their rank-symbolic templates (symbolic.hpp) instantiated at
// `nranks`; lu, sp and bt are unrolled per rank in skeletons.cpp, with
// their allreduce lowered from SymBuilder's expansion.  Every builder reads
// its kernel's class table and tags (class_tables.hpp), and lu, sp and bt
// also the 2-D block decomposition their kernels run on (block2d.hpp); the
// per-kernel conformance ctests (a traced run embedded into the skeleton's
// match relation) keep the op sequences honest.  Iteration counts need not
// agree with a particular run — conformance checks edge-set admissibility,
// not multiset equality — but peers/tags/bytes must.
#pragma once

#include <string>

#include "nas/common.hpp"
#include "skeleton/ir.hpp"

namespace ovp::nas {

/// Parameters mirroring the subset of NasParams that shapes communication.
struct SkeletonParams {
  int nranks = 4;
  Class cls = Class::S;
  /// Outer iteration override (0 = class default), like NasParams.
  int iterations = 0;
  /// MG only: "mpi", "armci", or "armci-nb" (default, like MgParams).
  std::string variant;
  /// Flop pricing for the compute ops (overlap-window analysis input).
  CostModel cost;
};

struct SkeletonBuildResult {
  skel::Skeleton skeleton;
  /// Non-empty on failure (unknown kernel, indivisible decomposition...);
  /// failures of a buildable kernel start with "<kernel>: ".
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Builds the skeleton for `kernel` in {bt,cg,ep,ft,is,lu,mg,sp}.
[[nodiscard]] SkeletonBuildResult buildNasSkeleton(
    const std::string& kernel, const SkeletonParams& params);

/// The kernel names buildNasSkeleton accepts, in golden-file order.
[[nodiscard]] const std::vector<std::string>& nasSkeletonKernels();

}  // namespace ovp::nas
