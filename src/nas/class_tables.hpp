// Problem-class tables and message tags of the NAS kernels, kept once.
//
// Each executable kernel (cg.cpp ... sp.cpp) and its skeleton builder read
// the same entry: the rank-symbolic templates (symbolic.cpp) for CG, EP,
// IS, FT and MG, the unrolled builders (skeletons.cpp) for LU, SP and BT.
// So a skeleton describes exactly the iterations and messages its kernel
// runs, at every class.
#pragma once

#include <cstdint>

#include "nas/common.hpp"

namespace ovp::nas::tables {

inline constexpr Bytes kD = 8;   // sizeof(double)
inline constexpr Bytes kC = 16;  // sizeof(Complex)

// ---- CG ----
struct CgSizes {
  int n;      // matrix order
  int niter;  // outer power iterations
  int cgit;   // CG iterations per solve
  int band1;  // off-diagonal offsets of the symmetric banded matrix
  int band2;
};
[[nodiscard]] constexpr CgSizes cgSizes(Class c) {
  switch (c) {
    case Class::S: return {1024, 2, 5, 3, 40};
    case Class::A: return {4096, 3, 8, 5, 160};
    case Class::B: return {16384, 3, 10, 7, 640};
  }
  return {1024, 2, 5, 3, 40};
}
inline constexpr int kCgTagSeg = 100;  // p exchange; +1: uneven z gather

// ---- EP ----
[[nodiscard]] constexpr std::int64_t epPairs(Class c) {
  switch (c) {
    case Class::S: return 1LL << 16;
    case Class::A: return 1LL << 19;
    case Class::B: return 1LL << 21;
  }
  return 1LL << 16;
}

// ---- IS ----
struct IsSizes {
  std::int64_t keys;
  int max_key;  // keys are uniform in [0, max_key)
  int niter;
};
[[nodiscard]] constexpr IsSizes isSizes(Class c) {
  switch (c) {
    case Class::S: return {1LL << 15, 1 << 11, 3};
    case Class::A: return {1LL << 18, 1 << 14, 3};
    case Class::B: return {1LL << 20, 1 << 16, 3};
  }
  return {1LL << 15, 1 << 11, 3};
}

// ---- FT ----
struct FtSizes {
  int nx, ny, nz, niter;
};
[[nodiscard]] constexpr FtSizes ftSizes(Class c) {
  switch (c) {
    case Class::S: return {32, 32, 32, 2};
    case Class::A: return {64, 64, 64, 3};
    case Class::B: return {128, 64, 64, 3};
  }
  return {32, 32, 32, 2};
}

// ---- MG ----
struct MgSizes {
  int n, cycles;
};
[[nodiscard]] constexpr MgSizes mgSizes(Class c) {
  switch (c) {
    case Class::S: return {16, 2};
    case Class::A: return {32, 3};
    case Class::B: return {64, 3};
  }
  return {16, 2};
}
inline constexpr int kMgTagExch = 500;  // + level*8 + dir
inline constexpr int kMgCoarseSweeps = 4;

// ---- LU, SP, BT (2-D block decomposition of nx x ny, nz planes) ----
struct GridSizes {
  int nx, ny, nz, niter;
};
/// Solution components per grid point, like NPB LU/SP/BT (BT's 5x5 block).
inline constexpr int kNcomp = 5;

/// How a kernel swaps ghost faces with its four neighbours (block2d.hpp):
/// `ghost` planes deep on each side in x and y, west/east faces under
/// `tag_x`, north/south faces under `tag_y`, and `pre_wait_flops` flops per
/// face double charged between posting the exchange and waiting on it.
/// Every kernel charges two flops per face double after the wait.
struct FaceSpec {
  int ghost;
  int tag_x;
  int tag_y;
  int pre_wait_flops;
};

namespace lu {
[[nodiscard]] constexpr GridSizes sizes(Class c) {
  switch (c) {
    case Class::S: return {16, 16, 8, 3};
    case Class::A: return {32, 32, 16, 4};
    case Class::B: return {48, 48, 24, 4};
  }
  return {16, 16, 8, 3};
}
/// NPB LU's exchange_3: one ghost plane, a tag per axis.
inline constexpr FaceSpec kFaces{/*ghost=*/1, /*tag_x=*/200, /*tag_y=*/201,
                                 /*pre_wait_flops=*/4};
inline constexpr int kTagSweepCol = 210;  // west->east boundary columns
inline constexpr int kTagSweepRow = 211;  // north->south boundary rows
inline constexpr int kTagBackCol = 212;   // east->west
inline constexpr int kTagBackRow = 213;   // south->north
}  // namespace lu

namespace sp {
[[nodiscard]] constexpr GridSizes sizes(Class c) {
  switch (c) {
    case Class::S: return {24, 24, 16, 3};
    case Class::A: return {48, 48, 48, 3};
    case Class::B: return {72, 72, 48, 3};
  }
  return {24, 24, 16, 3};
}
/// Stage count of the line-solve pipeline (NPB SP's multipartition
/// processes a line in per-cell stages; we stage the k-plane blocks).
/// Staging is what makes boundary messages arrive *during* the next
/// stage's lhs computation — the overlap the code attempts.
inline constexpr int kStages = 3;
/// copy_faces: two ghost planes for the 4th-order dissipation stencil.
inline constexpr FaceSpec kFaces{/*ghost=*/2, /*tag_x=*/300, /*tag_y=*/300,
                                 /*pre_wait_flops=*/2};
// Per-stage tags: the stage index is added to the base.
inline constexpr int kTagFwdX = 310, kTagBwdX = 340;
inline constexpr int kTagFwdY = 370, kTagBwdY = 400;
static_assert(kStages < 30, "SP's per-stage tag ranges would overlap");
/// Forward-elimination boundary state per line: the two most recent
/// normalized rows (d, e, r[5] each) -> 14 doubles.
inline constexpr int kFwdDoubles = 2 * (2 + kNcomp);
/// Back-substitution boundary: the two downstream solution points -> 10.
inline constexpr int kBwdDoubles = 2 * kNcomp;
}  // namespace sp

namespace bt {
[[nodiscard]] constexpr GridSizes sizes(Class c) {
  switch (c) {
    case Class::S: return {24, 24, 12, 2};
    case Class::A: return {36, 36, 16, 3};
    case Class::B: return {48, 48, 24, 3};
  }
  return {24, 24, 12, 2};
}
inline constexpr FaceSpec kFaces{/*ghost=*/1, /*tag_x=*/400, /*tag_y=*/400,
                                 /*pre_wait_flops=*/2};
inline constexpr int kTagFwdX = 410, kTagBwdX = 411;
inline constexpr int kTagFwdY = 412, kTagBwdY = 413;
/// Line-boundary payloads: forward passes the normalized upper block Ĉ
/// (5x5) + rhs (5); backward passes the first local solution vector (5).
inline constexpr int kFwdDoubles = kNcomp * kNcomp + kNcomp;
inline constexpr int kBwdDoubles = kNcomp;
}  // namespace bt

}  // namespace ovp::nas::tables
