// Symbolic skeleton construction.
//
// SymBuilder mirrors skel::RankBuilder's surface, but emits ONE template
// for all ranks and all job sizes instead of one op list per concrete
// rank: loops take symbolic bounds plus a body callback, `guarded()` opens
// a rank-role case split, and every peer/tag/bytes/flops argument is an
// Expr.  The mpi* helpers expand the collectives the templates call into
// the point-to-point decompositions src/mpi/collectives.cpp executes (same
// reserved tags, from mpi/protocol.hpp, same op order).  They are the
// skeleton layer's only expansions: the unrolled LU/SP/BT builders lower
// mpiAllreduce onto their ranks too (lowerRank).  Their loop/guard shapes
// are the canonical forms the symbolic matching and deadlock provers
// recognize (the ring and tree lemmas, see verify.hpp).  The
// trace-conformance gates check the expansions against live runs.  A collective no template calls has no
// expansion here: it returns together with its first caller.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "skeleton/symbolic/ir.hpp"

namespace ovp::skel::sym {

class SymBuilder {
 public:
  explicit SymBuilder(std::string name);

  /// Sets the call-site label stamped on subsequently emitted ops.
  void site(std::string s) { site_ = std::move(s); }

  /// Admissible job sizes (guard over P only) and the smallest one.
  void family(Guard g);
  void minProcs(int p);
  void nsPerFlop(double v);

  // -- ops (symbolic analogues of RankBuilder's emitters) --
  void compute(ExprP flops);
  void isend(ExprP dst, ExprP tag, ExprP bytes);
  void irecv(ExprP src, ExprP tag, ExprP bytes);
  void send(ExprP dst, ExprP tag, ExprP bytes);
  void recv(ExprP src, ExprP tag, ExprP bytes);
  /// Retires every request opened since the previous waitall.
  void waitall();
  void barrier();
  void put(ExprP target, ExprP bytes, bool nb);
  void fence(ExprP target);

  // -- structure --
  /// for (v = begin; v < end; ++v)
  void loop(const std::string& v, ExprP begin, ExprP end,
            const std::function<void()>& body);
  /// for (v = begin; v >= end; --v)
  void rloop(const std::string& v, ExprP begin, ExprP end,
             const std::function<void()>& body);
  void guarded(Guard g, const std::function<void()>& body);

  // -- MPI collective expansions --
  void mpiBcast(ExprP n, ExprP root);
  void mpiReduce(ExprP count, ExprP root);
  void mpiAllreduce(ExprP count);
  void mpiAlltoall(ExprP bytes_per_rank);
  void mpiAlltoallvAny();
  void mpiAllgather(ExprP bytes_per_rank);

  [[nodiscard]] SymSkeleton take();

 private:
  SymNode& emitOp(OpKind kind);
  /// Fresh loop-variable name for collective expansions ("k0", "k1", ...);
  /// deterministic, unique along any path.
  std::string gensym();

  SymSkeleton skel_;
  std::string site_;
  std::vector<std::vector<SymNodeP>*> stack_;  // innermost body last
  int gensym_ = 0;
};

}  // namespace ovp::skel::sym
