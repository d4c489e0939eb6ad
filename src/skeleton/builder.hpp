// Skeleton construction helpers.
//
// RankBuilder assembles one rank's unrolled op list with automatic request
// numbering and a current call-site label; Builder bundles one RankBuilder
// per rank and assembles the final Skeleton.  The unrolled LU/SP/BT
// builders and skel::sym::instantiate() both emit through it.
//
// The mpi* methods expand MPI collectives into the exact point-to-point
// decomposition src/mpi/collectives.cpp executes (same algorithms, same
// reserved tags, same byte counts).  This is load-bearing: the trace
// conformance gate checks every dynamically observed MATCH edge against the
// skeleton's static match relation, so a skeleton built with these helpers
// stays byte-for-byte admissible for a live traced run — and the ctest
// sweep over all NAS kernels is what keeps the two decompositions in sync.
// The other collectives are expanded by the symbolic twin
// (skeleton/symbolic/builder.hpp) only.
#pragma once

#include <string>
#include <vector>

#include "skeleton/ir.hpp"

namespace ovp::skel {

/// Reserved tags of the collectives the builders expand, mirroring
/// src/mpi/collectives.cpp (which keeps them in an anonymous namespace on
/// purpose — application code must not use them).  The conformance tests
/// fail if the two ever drift.
namespace tags {
inline constexpr int kBcast = (1 << 20) + 2;
inline constexpr int kReduce = (1 << 20) + 3;
inline constexpr int kAlltoall = (1 << 20) + 4;
inline constexpr int kAllgather = (1 << 20) + 5;
inline constexpr int kAlltoallv = (1 << 20) + 8;
}  // namespace tags

class RankBuilder {
 public:
  RankBuilder(Rank rank, int nranks) : rank_(rank), nranks_(nranks) {}

  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] int nranks() const { return nranks_; }

  /// Sets the call-site label stamped on subsequently emitted ops.
  void site(std::string s) { site_ = std::move(s); }

  void compute(DurationNs cost);
  [[nodiscard]] int isend(Rank dst, int tag, Bytes bytes);
  [[nodiscard]] int irecv(Rank src, int tag, Bytes bytes);
  void send(Rank dst, int tag, Bytes bytes);
  void recv(Rank src, int tag, Bytes bytes);
  void wait(int req);
  void waitall(std::vector<int> reqs);
  void sendrecv(Rank dst, int stag, Bytes sbytes, Rank src, int rtag,
                Bytes rbytes);
  void barrier();  // ARMCI-style flag barrier (not the MPI decomposition)
  void put(Rank target, Bytes bytes, bool nb);
  void get(Rank target, Bytes bytes, bool nb);
  void fence(Rank target);

  // ---- MPI collective expansions (see src/mpi/collectives.cpp) ----
  void mpiBcast(Bytes n, Rank root);
  void mpiReduce(int count, Rank root);
  void mpiAllreduce(int count);  // reduce to 0 + bcast from 0

  [[nodiscard]] Program take() { return std::move(prog_); }

 private:
  Op& push(OpKind kind);

  Rank rank_;
  int nranks_;
  int next_req_ = 0;
  std::string site_;
  Program prog_;
};

/// Whole-job builder: one RankBuilder per rank.
class Builder {
 public:
  Builder(std::string name, int nranks);
  [[nodiscard]] RankBuilder& rank(Rank r) {
    return ranks_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int nranks() const { return static_cast<int>(ranks_.size()); }
  /// Assembles the Skeleton (moves the per-rank programs out).
  [[nodiscard]] Skeleton take();

 private:
  std::string name_;
  std::vector<RankBuilder> ranks_;
};

}  // namespace ovp::skel
