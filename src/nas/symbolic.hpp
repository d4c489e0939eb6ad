// Rank-symbolic skeletons of the NAS kernel reproductions.
//
// Each builder emits ONE skel::sym::SymSkeleton template describing every
// rank at every admissible job size P.  For the converted kernels this is
// the only description of their communication: buildNasSkeleton returns
// instantiate(template, P), and ovprof_check --symbolic proves
// per-(src,dst,tag) matching and deadlock-freedom for the whole rank-count
// family in one run and extracts closed-form per-site cost terms for the
// model layer.
//
// Converted kernels: cg, ep, is, ft, and mg (all three variants).  IS's
// data-dependent alltoallv keeps kAnyBytes wildcard terms.  LU/SP/BT stay
// unrolled in skeletons.cpp for now (their stage-pipelined sweeps use
// per-stage Wait, which the symbolic IR's implicit-request model does not
// cover).
#pragma once

#include <string>
#include <vector>

#include "nas/skeletons.hpp"
#include "skeleton/symbolic/ir.hpp"

namespace ovp::nas {

struct SymSkeletonBuildResult {
  skel::sym::SymSkeleton skeleton;
  /// Non-empty on failure (kernel without a symbolic builder, bad variant).
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Builds the symbolic skeleton for `kernel` in {cg,ep,ft,is,mg}.  Uses
/// the same SkeletonParams as buildNasSkeleton; `nranks` is ignored (the
/// template covers all P in its family).
[[nodiscard]] SymSkeletonBuildResult buildNasSymSkeleton(
    const std::string& kernel, const SkeletonParams& params);

/// Kernels with a symbolic builder, in golden-file order.
[[nodiscard]] const std::vector<std::string>& nasSymbolicKernels();

}  // namespace ovp::nas
