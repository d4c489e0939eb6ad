// Skeleton construction helpers.
//
// RankBuilder assembles one rank's unrolled op list with automatic request
// numbering and a current call-site label; Builder bundles one RankBuilder
// per rank and assembles the final Skeleton.  The unrolled LU/SP/BT
// builders and skel::sym::instantiate() both emit through it.
//
// RankBuilder expands no collective.  A builder that needs one builds it
// with the symbolic SymBuilder (skeleton/symbolic/builder.hpp), whose
// expansions are the point-to-point decompositions src/mpi/collectives.cpp
// executes, and lowers it onto its RankBuilder with skel::sym::lowerRank.
#pragma once

#include <string>
#include <vector>

#include "skeleton/ir.hpp"

namespace ovp::skel {

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
  void barrier();  // ARMCI-style flag barrier (not the MPI decomposition)
  void put(Rank target, Bytes bytes, bool nb);
  void get(Rank target, Bytes bytes, bool nb);
  void fence(Rank target);

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
