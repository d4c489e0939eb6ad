// Declarative communication-skeleton IR (static-analysis counterpart of the
// executable kernels in src/nas).
//
// A Skeleton is a rank-count-parameterized description of WHAT a program
// communicates — one flat per-rank op list of sends/receives/waits/RMA plus
// priced compute segments — with none of the numerics.  It is what the
// static analyses in this directory (message matching, matching-based
// deadlock search, overlap-window pricing) and the trace-conformance gate
// operate on, so properties can be checked at any rank count without
// running the simulator (the exascale-diagnostics motivation: analysis must
// scale beyond what can be executed).
//
// Loops are unrolled at build time: the scaled-down NAS classes make the
// flat form small enough to diff, and unrolling keeps every analysis a
// plain graph/list walk with no symbolic iteration domains.  Data-dependent
// quantities that a static description cannot know (IS's alltoallv key
// counts) use the kAnyBytes wildcard, beside the receive wildcards
// mpi::kAnySource/kAnyTag the IR shares with the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/protocol.hpp"
#include "util/types.hpp"

namespace ovp::skel {

/// Byte count statically unknown (data-dependent message sizes).
inline constexpr Bytes kAnyBytes = -1;

enum class OpKind : std::uint8_t {
  Compute,   // cost ns of user computation (an overlap window when between
             // a nonblocking post and its wait)
  Isend,     // peer=dst, tag, bytes, defines req
  Irecv,     // peer=src (may be mpi::kAnySource), tag (may be mpi::kAnyTag),
             // bytes, defines req
  Send,      // blocking send: peer=dst, tag, bytes
  Recv,      // blocking receive: peer=src|kAnySource, tag|kAnyTag, bytes
  Wait,      // consumes req
  Waitall,   // consumes every req in reqs (possibly empty)
  Sendrecv,  // fused send(peer,tag,bytes) + recv(src,rtag,rbytes)
  Barrier,   // full-job synchronization (the ARMCI flag barrier)
  RmaPut,    // peer=target, bytes; nb=true when completion needs a fence
  RmaGet,    // peer=target, bytes; nb=true when completion needs a fence
  Fence,     // retires this rank's outstanding nb RMA (peer kept for info)
};

[[nodiscard]] const char* opKindName(OpKind k);
/// Inverse of opKindName (the skeleton parser); false on unknown.
[[nodiscard]] bool opKindFromName(std::string_view name, OpKind& out);

/// One skeleton operation.  Field meaning is kind-specific (see OpKind);
/// unused fields keep their defaults so serialization stays minimal.
struct Op {
  OpKind kind = OpKind::Compute;
  Rank peer = -1;   // dst (sends), src (receives), target (RMA)
  int tag = 0;
  Bytes bytes = 0;
  DurationNs cost = 0;  // Compute only
  int req = -1;         // request id defined by Isend/Irecv, consumed by Wait
  std::vector<int> reqs;  // Waitall set
  bool nb = false;        // RmaPut/RmaGet: nonblocking (fence-completed)
  Rank src = -1;          // Sendrecv: receive half source
  int rtag = 0;           // Sendrecv: receive half tag
  Bytes rbytes = 0;       // Sendrecv: receive half bytes
  std::string site;       // call-site label ("cg.matvec", "mg.smooth", ...)
};

/// One rank's unrolled program.
struct Program {
  std::vector<Op> ops;
};

/// A whole job's skeleton.
struct Skeleton {
  std::string name;  // "cg.S.p4", "fixture.unmatched_send", ...
  int nranks = 0;
  std::vector<Program> ranks;

  /// Structural well-formedness: rank/peer ranges, request discipline
  /// (each req defined exactly once before use, waited at most once),
  /// non-negative costs and byte counts (kAnyBytes allowed).  Returns ""
  /// when valid, else the first problem found (deterministic).
  [[nodiscard]] std::string validate() const;

  /// Total op count over all ranks.
  [[nodiscard]] std::int64_t totalOps() const;
};

}  // namespace ovp::skel
