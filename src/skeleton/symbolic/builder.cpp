#include "skeleton/symbolic/builder.hpp"

#include <utility>

#include "mpi/protocol.hpp"

namespace ovp::skel::sym {

SymBuilder::SymBuilder(std::string name) {
  skel_.name = std::move(name);
  stack_.push_back(&skel_.body);
}

void SymBuilder::family(Guard g) { skel_.family = std::move(g); }
void SymBuilder::minProcs(int p) { skel_.min_procs = p; }
void SymBuilder::nsPerFlop(double v) { skel_.ns_per_flop = v; }

SymNode& SymBuilder::emitOp(OpKind kind) {
  SymNodeP n = makeOpNode();
  n->op = kind;
  n->site = site_;
  stack_.back()->push_back(std::move(n));
  return *stack_.back()->back();
}

std::string SymBuilder::gensym() {
  return std::string("k").append(std::to_string(gensym_++));
}

void SymBuilder::compute(ExprP flops) {
  SymNode& n = emitOp(OpKind::Compute);
  n.flops = std::move(flops);
}

void SymBuilder::isend(ExprP dst, ExprP tag, ExprP bytes) {
  SymNode& n = emitOp(OpKind::Isend);
  n.peer = std::move(dst);
  n.tag = std::move(tag);
  n.bytes = std::move(bytes);
}

void SymBuilder::irecv(ExprP src, ExprP tag, ExprP bytes) {
  SymNode& n = emitOp(OpKind::Irecv);
  n.peer = std::move(src);
  n.tag = std::move(tag);
  n.bytes = std::move(bytes);
}

void SymBuilder::send(ExprP dst, ExprP tag, ExprP bytes) {
  SymNode& n = emitOp(OpKind::Send);
  n.peer = std::move(dst);
  n.tag = std::move(tag);
  n.bytes = std::move(bytes);
}

void SymBuilder::recv(ExprP src, ExprP tag, ExprP bytes) {
  SymNode& n = emitOp(OpKind::Recv);
  n.peer = std::move(src);
  n.tag = std::move(tag);
  n.bytes = std::move(bytes);
}

void SymBuilder::waitall() { emitOp(OpKind::Waitall); }

void SymBuilder::barrier() { emitOp(OpKind::Barrier); }

void SymBuilder::put(ExprP target, ExprP bytes, bool nb) {
  SymNode& n = emitOp(OpKind::RmaPut);
  n.peer = std::move(target);
  n.bytes = std::move(bytes);
  n.nb = nb;
}

void SymBuilder::fence(ExprP target) {
  SymNode& n = emitOp(OpKind::Fence);
  n.peer = std::move(target);
}

void SymBuilder::loop(const std::string& v, ExprP begin, ExprP end,
                      const std::function<void()>& body) {
  SymNodeP n = makeLoopNode(v, std::move(begin), std::move(end), true);
  SymNode* raw = n.get();
  stack_.back()->push_back(std::move(n));
  stack_.push_back(&raw->body);
  body();
  stack_.pop_back();
}

void SymBuilder::rloop(const std::string& v, ExprP begin, ExprP end,
                       const std::function<void()>& body) {
  SymNodeP n = makeLoopNode(v, std::move(begin), std::move(end), false);
  SymNode* raw = n.get();
  stack_.back()->push_back(std::move(n));
  stack_.push_back(&raw->body);
  body();
  stack_.pop_back();
}

void SymBuilder::guarded(Guard g, const std::function<void()>& body) {
  SymNodeP n = makeIfNode(std::move(g));
  SymNode* raw = n.get();
  stack_.back()->push_back(std::move(n));
  stack_.push_back(&raw->body);
  body();
  stack_.pop_back();
}

// ---- MPI collective expansions ----
//
// Each expansion instantiates, per rank and per P, to exactly the op
// sequence of the matching algorithm in src/mpi/collectives.cpp; the
// derivations are spelled out in DESIGN.md 5.16.

void SymBuilder::mpiBcast(ExprP n, ExprP root) {
  // Binomial tree from `root`, virtual rank vr = (r - root + P) mod P.
  // Receive: the unique level k with vr mod 2^(k+1) == 2^k (the lowest set
  // bit of vr) receives from vr - 2^k.  Send: levels below the lowest set
  // bit, descending, when the child vr + 2^k exists.
  const ExprP vr = mod(add(sub(rnk(), root), procs()), procs());
  const std::string k = gensym();
  loop(k, cst(0), clog2(procs()), [&] {
    const ExprP step = pow2(var(k));
    guarded({Cond{mod(vr, pow2(add(var(k), cst(1)))), CmpOp::Eq, step}}, [&] {
      recv(mod(add(sub(vr, step), root), procs()), cst(mpi::tags::kBcast), n);
    });
  });
  const std::string j = gensym();
  rloop(j, sub(clog2(procs()), cst(1)), cst(0), [&] {
    const ExprP step = pow2(var(j));
    guarded({Cond{mod(vr, pow2(add(var(j), cst(1)))), CmpOp::Eq, cst(0)},
             Cond{add(vr, step), CmpOp::Lt, procs()}},
            [&] {
              send(mod(add(add(vr, step), root), procs()),
                   cst(mpi::tags::kBcast), n);
            });
  });
}

void SymBuilder::mpiReduce(ExprP count, ExprP root) {
  // Mirrored binomial tree: ascending levels; a rank receives children
  // while its low bits are zero, then sends to its parent at the level of
  // its lowest set bit (and stops — higher guards are unsatisfiable).
  const ExprP vr = mod(add(sub(rnk(), root), procs()), procs());
  const ExprP n = mul(count, cst(8));  // doubles on the wire
  const std::string k = gensym();
  loop(k, cst(0), clog2(procs()), [&] {
    const ExprP step = pow2(var(k));
    guarded({Cond{mod(vr, pow2(add(var(k), cst(1)))), CmpOp::Eq, cst(0)},
             Cond{add(vr, step), CmpOp::Lt, procs()}},
            [&] {
              recv(mod(add(add(vr, step), root), procs()),
                   cst(mpi::tags::kReduce), n);
            });
    guarded({Cond{mod(vr, pow2(add(var(k), cst(1)))), CmpOp::Eq, step}}, [&] {
      send(mod(add(sub(vr, step), root), procs()), cst(mpi::tags::kReduce), n);
    });
  });
}

void SymBuilder::mpiAllreduce(ExprP count) {
  mpiReduce(count, cst(0));
  mpiBcast(mul(std::move(count), cst(8)), cst(0));
}

namespace {

/// Shared ring shape of alltoall/alltoallv/allgather: irecv from every
/// offset peer, then isend to every offset peer, then waitall.
void ringExchange(SymBuilder& b, const std::string& rv,
                  const std::string& sv, int tag, const ExprP& rbytes,
                  const ExprP& sbytes) {
  b.loop(rv, cst(1), procs(), [&] {
    b.irecv(mod(add(rnk(), var(rv)), procs()), cst(tag), rbytes);
  });
  b.loop(sv, cst(1), procs(), [&] {
    b.isend(mod(add(rnk(), var(sv)), procs()), cst(tag), sbytes);
  });
  b.waitall();
}

}  // namespace

void SymBuilder::mpiAlltoall(ExprP bytes_per_rank) {
  const std::string rv = gensym();
  const std::string sv = gensym();
  ringExchange(*this, rv, sv, mpi::tags::kAlltoall, bytes_per_rank,
               bytes_per_rank);
}

void SymBuilder::mpiAlltoallvAny() {
  const std::string rv = gensym();
  const std::string sv = gensym();
  const ExprP any = cst(kAnyBytes);
  ringExchange(*this, rv, sv, mpi::tags::kAlltoallv, any, any);
}

void SymBuilder::mpiAllgather(ExprP bytes_per_rank) {
  const std::string rv = gensym();
  const std::string sv = gensym();
  ringExchange(*this, rv, sv, mpi::tags::kAllgather, bytes_per_rank,
               bytes_per_rank);
}

SymSkeleton SymBuilder::take() { return std::move(skel_); }

}  // namespace ovp::skel::sym
