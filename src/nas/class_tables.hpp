// Problem-class tables of the rank-symbolic skeleton builders
// (symbolic.cpp), plus the element sizes the unrolled LU/SP/BT builders
// (skeletons.cpp) also price messages with.
//
// The executable kernels keep their own copies on purpose; the per-kernel
// trace-conformance ctests tie those to these.
#pragma once

#include <cstdint>

#include "nas/common.hpp"

namespace ovp::nas::tables {

inline constexpr Bytes kD = 8;   // sizeof(double)
inline constexpr Bytes kC = 16;  // sizeof(Complex)

// ---- CG ----
struct CgSizes {
  int n, niter, cgit;
};
[[nodiscard]] constexpr CgSizes cgSizes(Class c) {
  switch (c) {
    case Class::S: return {1024, 2, 5};
    case Class::A: return {4096, 3, 8};
    case Class::B: return {16384, 3, 10};
  }
  return {1024, 2, 5};
}
inline constexpr int kCgTagSeg = 100;

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
  int max_key;
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

}  // namespace ovp::nas::tables
