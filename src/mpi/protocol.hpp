// Protocol constants of the simulated MPI library, stated once.
//
// The library (mpi.cpp, collectives.cpp) executes these decisions, and the
// static skeleton layer (src/skeleton) predicts what the library will do
// from the same header: which receive arguments are wildcards and what
// they match, which tags the collective decompositions reserve, and which
// sends go eagerly.  The trace layer's offline matcher reads the wildcard
// rule too.  Constants and constexpr rules only, so both include it without
// linking the library.
#pragma once

#include "util/types.hpp"

namespace ovp::mpi {

/// Receive-side wildcards.
inline constexpr Rank kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// The matching rule: a receive for (`want_src`, `want_tag`) accepts a
/// message from `src` with `tag`; each wildcard accepts any value.
[[nodiscard]] constexpr bool receiveMatches(Rank want_src, int want_tag,
                                            Rank src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

/// Tags the collectives reserve for their point-to-point decompositions,
/// above any tag application code uses.
namespace tags {
inline constexpr int kBarrier = (1 << 20) + 1;
inline constexpr int kBcast = (1 << 20) + 2;
inline constexpr int kReduce = (1 << 20) + 3;
inline constexpr int kAlltoall = (1 << 20) + 4;
inline constexpr int kAllgather = (1 << 20) + 5;
inline constexpr int kGather = (1 << 20) + 6;
inline constexpr int kScatter = (1 << 20) + 7;
inline constexpr int kAlltoallv = (1 << 20) + 8;
}  // namespace tags

/// Default eager limit (MpiConfig::eager_limit).
inline constexpr Bytes kEagerLimit = 16 * 1024;

/// The eager rule: a standard-mode send of `bytes` goes eagerly (copied
/// out, never waiting for its receiver) when it is below `limit`; at or
/// above it the send waits for the rendezvous handshake.
[[nodiscard]] constexpr bool sendsEagerly(Bytes bytes, Bytes limit) {
  return bytes < limit;
}

}  // namespace ovp::mpi
