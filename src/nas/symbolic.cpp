#include "nas/symbolic.hpp"

#include <utility>

#include "nas/class_tables.hpp"
#include "nas/fft.hpp"
#include "skeleton/builder.hpp"
#include "skeleton/symbolic/builder.hpp"

namespace ovp::nas {

namespace {

using namespace skel::sym;  // NOLINT(google-build-using-namespace)
using tables::kC;
using tables::kD;

SymSkeletonBuildResult symFail(std::string why) {
  SymSkeletonBuildResult r;
  r.error = std::move(why);
  return r;
}

SymSkeletonBuildResult symFinish(SymBuilder&& b) {
  SymSkeletonBuildResult r;
  r.skeleton = b.take();
  const std::string err = validateSym(r.skeleton);
  if (!err.empty()) {
    return symFail("internal: built an invalid symbolic skeleton: " + err);
  }
  return r;
}

// ---------------------------------------------------------------- CG ----

SymSkeletonBuildResult buildSymCg(const SkeletonParams& p) {
  const tables::CgSizes sz = tables::cgSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  SymBuilder b("cg");
  b.nsPerFlop(p.cost.ns_per_flop);
  const ExprP n = cst(sz.n);
  const ExprP myn = blocksize(n, procs(), rnk());
  const auto dot = [&] {
    b.site("cg.dot");
    b.compute(mul(cst(2), myn));
    b.mpiAllreduce(cst(1));
  };
  const auto segRing = [&](int tag) {
    // Peer ring: receive segment sizes follow the peer's block, sends
    // carry this rank's block.
    b.loop("d", cst(1), procs(), [&] {
      const ExprP peer = mod(add(rnk(), var("d")), procs());
      b.irecv(peer, cst(tag), mul(blocksize(n, procs(), peer), cst(kD)));
    });
    b.loop("e", cst(1), procs(), [&] {
      b.isend(mod(add(rnk(), var("e")), procs()), cst(tag),
              mul(myn, cst(kD)));
    });
  };
  b.loop("it", cst(0), cst(niter), [&] {
    dot();  // rho = r.r
    b.loop("cg", cst(0), cst(sz.cgit), [&] {
      b.site("cg.matvec");
      segRing(tables::kCgTagSeg);
      b.compute(mul(cst(10), myn));
      b.waitall();
      b.compute(mul(cst(8), myn));
      dot();  // p.q
      b.site("cg.axpy");
      b.compute(mul(cst(4), myn));
      dot();  // new r.r
      b.site("cg.axpy");
      b.compute(mul(cst(2), myn));
    });
    b.site("cg.norm");
    b.compute(mul(cst(4), myn));
    b.mpiAllreduce(cst(2));
    b.compute(myn);
    b.site("cg.allgather");
    b.guarded({Cond{mod(n, procs()), CmpOp::Eq, cst(0)}},
              [&] { b.mpiAllgather(mul(myn, cst(kD))); });
    b.guarded({Cond{mod(n, procs()), CmpOp::Ne, cst(0)}}, [&] {
      segRing(tables::kCgTagSeg + 1);
      b.waitall();
    });
  });
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- EP ----

SymSkeletonBuildResult buildSymEp(const SkeletonParams& p) {
  const std::int64_t pairs = p.iterations > 0
                                 ? static_cast<std::int64_t>(p.iterations)
                                 : tables::epPairs(p.cls);
  SymBuilder b("ep");
  b.nsPerFlop(p.cost.ns_per_flop);
  const ExprP my_pairs = blocksize(cst(pairs), procs(), rnk());
  b.site("ep.sample");
  b.compute(mul(cst(80), my_pairs));
  b.site("ep.reduce");
  b.mpiAllreduce(cst(2));   // (sx, sy)
  b.mpiAllreduce(cst(10));  // annulus counts
  b.mpiAllreduce(cst(1));   // accepted count
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- IS ----

SymSkeletonBuildResult buildSymIs(const SkeletonParams& p) {
  const tables::IsSizes sz = tables::isSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  SymBuilder b("is");
  b.nsPerFlop(p.cost.ns_per_flop);
  const ExprP my_n = blocksize(cst(sz.keys), procs(), rnk());
  b.site("is.init");
  b.compute(mul(cst(20), my_n));
  b.loop("it", cst(0), cst(niter), [&] {
    b.site("is.histogram");
    b.compute(mul(cst(2), my_n));
    b.mpiAllreduce(cst(sz.max_key));
    b.compute(cst(sz.max_key));
    b.site("is.pack");
    b.compute(mul(cst(6), my_n));
    b.site("is.exchange");
    b.mpiAlltoall(cst(8));  // sizeof(double)
    b.mpiAlltoallvAny();    // bucket payloads are data-dependent
    b.site("is.sort");
    b.compute(mul(cst(20), my_n));
    b.site("is.verify");
    b.mpiAllreduce(cst(1));  // global count (Sum)
    b.mpiAllreduce(cst(1));  // global ok (Min)
  });
  b.site("is.checksum");
  b.mpiAllreduce(cst(1));
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- FT ----

SymSkeletonBuildResult buildSymFt(const SkeletonParams& p) {
  const tables::FtSizes sz = tables::ftSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  SymBuilder b("ft");
  b.nsPerFlop(p.cost.ns_per_flop);
  // Slab distribution: nx and nz must split evenly over P.
  b.family({Cond{mod(cst(sz.nx), procs()), CmpOp::Eq, cst(0)},
            Cond{mod(cst(sz.nz), procs()), CmpOp::Eq, cst(0)}});
  const ExprP lnz = floordiv(cst(sz.nz), procs());
  const ExprP lnx = floordiv(cst(sz.nx), procs());
  const ExprP npts = mul(mul(lnz, cst(sz.ny)), cst(sz.nx));
  const ExprP block_bytes = mul(mul(mul(lnz, cst(sz.ny)), lnx), cst(kC));
  const auto transpose = [&] {
    b.compute(mul(cst(2), npts));  // pack
    b.mpiAlltoall(block_bytes);
    b.compute(mul(cst(2), npts));  // unpack
  };
  b.site("ft.init");
  b.compute(mul(cst(12), npts));
  b.site("ft.fft_fwd");
  b.compute(mul(mul(lnz, cst(sz.ny)), cst(fftFlops(sz.nx))));
  b.compute(mul(mul(lnz, cst(sz.nx)), cst(fftFlops(sz.ny))));
  b.site("ft.transpose");
  transpose();
  b.site("ft.fft_fwd");
  b.compute(mul(mul(lnx, cst(sz.ny)), cst(fftFlops(sz.nz))));
  b.site("ft.parseval");
  b.compute(mul(cst(3), npts));
  b.mpiAllreduce(cst(2));
  b.loop("step", cst(1), cst(niter + 1), [&] {
    b.site("ft.evolve");
    b.compute(mul(cst(12), npts));
    b.site("ft.fft_inv");
    b.compute(mul(mul(lnx, cst(sz.ny)), cst(fftFlops(sz.nz))));
    b.site("ft.transpose");
    transpose();
    b.site("ft.fft_inv");
    b.compute(mul(mul(lnz, cst(sz.nx)), cst(fftFlops(sz.ny))));
    b.compute(mul(mul(lnz, cst(sz.ny)),
                  cst(fftFlops(sz.nx) + 2LL * sz.nx)));
    b.site("ft.checksum");
    b.compute(floordiv(cst(4 * 1024), procs()));
    b.mpiReduce(cst(2), cst(0));
    b.mpiBcast(cst(2 * kD), cst(0));
  });
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- MG ----

SymSkeletonBuildResult buildSymMg(const SkeletonParams& p) {
  const tables::MgSizes sz = tables::mgSizes(p.cls);
  const int cycles = p.iterations > 0 ? p.iterations : sz.cycles;
  const std::string variant = p.variant.empty() ? "armci-nb" : p.variant;
  const bool is_mpi = variant == "mpi";
  const bool nonblocking = variant == "armci-nb";
  if (!is_mpi && variant != "armci" && variant != "armci-nb") {
    return symFail("mg: unknown variant '" + variant +
                   "' (want mpi|armci|armci-nb)");
  }
  SymBuilder b(is_mpi ? "mg-mpi"
                      : (nonblocking ? "mg-armci-nb" : "mg-armci"));
  b.nsPerFlop(p.cost.ns_per_flop);

  const ExprP n = cst(sz.n);
  const ExprP px = fac3x(procs());
  const ExprP py = fac3y(procs());
  const ExprP pz = fac3z(procs());
  // Level-0 admissibility.  sz.n is a power of two, so divisibility forces
  // power-of-two grid factors, which in turn makes every level down to
  // n_l = max(4, pz) admissible — see DESIGN.md 5.16 for the argument.
  b.family({Cond{mod(n, px), CmpOp::Eq, cst(0)},
            Cond{mod(n, py), CmpOp::Eq, cst(0)},
            Cond{mod(n, pz), CmpOp::Eq, cst(0)}});
  // Closed form of the level-geometry loop in mg.cpp: levels are pushed
  // while n / 2^l stays divisible (first failure at n_l < pz) and the next
  // grid is at least 4 cells; both stops collapse to this expression.
  const ExprP nlevels =
      add(sub(clog2(n), clog2(emax(cst(4), pz))), cst(1));

  const ExprP grid[3] = {px, py, pz};
  const auto extAt = [&](const ExprP& l, int axis) {
    return floordiv(floordiv(n, pow2(l)), grid[axis]);
  };
  const auto pointsAt = [&](const ExprP& l) {
    return mul(mul(extAt(l, 0), extAt(l, 1)), extAt(l, 2));
  };
  // Bytes in the face across side d: the two other axes' extents, each
  // with its two ghosts on an inclusive face when it comes before d's.
  const auto faceAt = [&](const ExprP& l, int d, bool inclusive) {
    ExprP size;
    for (int axis = 0; axis < 3; ++axis) {
      if (axis == d / 2) continue;
      ExprP e = extAt(l, axis);
      if (inclusive && axis < d / 2) e = add(e, cst(2));
      size = size ? mul(size, e) : e;
    }
    return mul(size, cst(kD));
  };

  // Rank r's coordinate on each axis of the grid, and the rank distance
  // to its neighbour along it.
  const ExprP coord[3] = {mod(rnk(), px), mod(floordiv(rnk(), px), py),
                          floordiv(rnk(), mul(px, py))};
  const ExprP step[3] = {cst(1), px, mul(px, py)};
  struct Dir {
    Guard g;
    ExprP peer;
  };
  const auto dirAt = [&](int d) -> Dir {
    const int a = d / 2;
    if (d % 2 == 0) {
      return {{Cond{coord[a], CmpOp::Ge, cst(1)}}, sub(rnk(), step[a])};
    }
    return {{Cond{coord[a], CmpOp::Le, sub(grid[a], cst(2))}},
            add(rnk(), step[a])};
  };
  const auto tagAt = [&](const ExprP& l, int d) {
    return add(add(cst(tables::kMgTagExch), mul(l, cst(8))), cst(d));
  };

  // mg.cpp's post/complete over sides [lo, hi).  A message is the sender's
  // packed face, not the receiver's ghost-inclusive inbox: MATCH records
  // carry the sender's bytes.  Only the overlapped (plain-face) exchange
  // puts non-blocking.
  const auto post = [&](const ExprP& l, int lo, int hi, bool inclusive) {
    const auto each = [&](const auto& op) {
      for (int d = lo; d < hi; ++d) {
        const Dir dir = dirAt(d);
        b.guarded(dir.g, [&] { op(d, dir.peer); });
      }
    };
    if (is_mpi) {
      each([&](int d, const ExprP& peer) {
        b.irecv(peer, tagAt(l, d), faceAt(l, d, inclusive));
      });
      each([&](int d, const ExprP& peer) {
        b.isend(peer, tagAt(l, d ^ 1), faceAt(l, d, inclusive));
      });
    } else {
      each([&](int d, const ExprP& peer) {
        b.put(peer, faceAt(l, d, inclusive), nonblocking && !inclusive);
      });
    }
  };
  const auto complete = [&](bool inclusive) {
    if (is_mpi) {
      b.waitall();
    } else {
      if (nonblocking && !inclusive) b.fence(cst(0));
      b.barrier();  // everyone's puts are in the inboxes
      b.barrier();  // inboxes free for reuse
    }
  };
  const auto globalSum = [&] {
    if (is_mpi) {
      b.mpiAllreduce(cst(1));
    } else {
      b.barrier();  // Armci::allreduceSum = three barrier rounds
      b.barrier();
      b.barrier();
    }
  };
  // Cells of the box whose extents are level l's less m.
  const auto cellsLess = [&](const ExprP& l, int m) {
    return mul(mul(sub(extAt(l, 0), cst(m)), sub(extAt(l, 1), cst(m))),
               sub(extAt(l, 2), cst(m)));
  };
  const auto splits = [&](const ExprP& l) -> Guard {  // Shape::splits
    return {Cond{extAt(l, 0), CmpOp::Ge, cst(3)},
            Cond{extAt(l, 1), CmpOp::Ge, cst(3)},
            Cond{extAt(l, 2), CmpOp::Ge, cst(3)}};
  };
  // mg.cpp's overlapped step: post level l's exchange, compute the guarded
  // interior while it is in flight, complete it, then compute the rest.
  const auto overlapped = [&](const char* site, const ExprP& l,
                              const Guard& g, const ExprP& interior,
                              const ExprP& rest) {
    b.site(site);
    post(l, 0, 6, false);
    b.guarded(g, [&] { b.compute(interior); });
    complete(false);
    b.compute(rest);
  };
  const auto smooth = [&](const ExprP& l) {
    overlapped("mg.smooth", l, splits(l), mul(cst(10), cellsLess(l, 2)),
               mul(cst(12), pointsAt(l)));
  };
  const auto residualNorm = [&] {
    b.site("mg.norm");
    post(cst(0), 0, 6, false);
    complete(false);
    b.compute(mul(cst(9), pointsAt(cst(0))));
    b.compute(mul(cst(2), pointsAt(cst(0))));
    globalSum();
  };

  b.site("mg.init");
  b.compute(mul(cst(8), pointsAt(cst(0))));
  residualNorm();
  b.loop("c", cst(0), cst(cycles), [&] {
    // The V-cycle recursion of mg.cpp, flattened: descend through
    // levels 0..nlevels-2, relax at the coarsest, ascend back up.
    b.loop("l", cst(0), sub(nlevels, cst(1)), [&] {
      const ExprP l = var("l");
      smooth(l);
      smooth(l);
      overlapped("mg.residual", l, splits(l), mul(cst(9), cellsLess(l, 2)),
                 mul(cst(9), pointsAt(l)));
      const ExprP c = add(l, cst(1));
      overlapped("mg.restrict", l,
                 {Cond{sub(extAt(c, 0), cst(1)), CmpOp::Ge, cst(1)},
                  Cond{sub(extAt(c, 1), cst(1)), CmpOp::Ge, cst(1)},
                  Cond{sub(extAt(c, 2), cst(1)), CmpOp::Ge, cst(1)}},
                 mul(cst(9), cellsLess(c, 1)), mul(cst(9), pointsAt(c)));
    });
    b.loop("s", cst(0), cst(tables::kMgCoarseSweeps),
           [&] { smooth(sub(nlevels, cst(1))); });
    b.rloop("u", sub(nlevels, cst(2)), cst(0), [&] {
      const ExprP l = var("u");
      const ExprP c = add(l, cst(1));
      b.site("mg.prolong");
      // NPB comm3's sequential exchange: one axis at a time, inclusive.
      for (int axis = 0; axis < 3; ++axis) {
        post(c, 2 * axis, 2 * axis + 2, true);
        complete(true);
      }
      b.compute(mul(cst(12), pointsAt(l)));
      smooth(l);
      smooth(l);
    });
  });
  residualNorm();
  return symFinish(std::move(b));
}

}  // namespace

SymSkeletonBuildResult buildNasSymSkeleton(const std::string& kernel,
                                           const SkeletonParams& params) {
  if (kernel == "cg") return buildSymCg(params);
  if (kernel == "ep") return buildSymEp(params);
  if (kernel == "is") return buildSymIs(params);
  if (kernel == "ft") return buildSymFt(params);
  if (kernel == "mg") return buildSymMg(params);
  return symFail("kernel '" + kernel +
                 "' has no symbolic builder (want cg|ep|ft|is|mg)");
}

const std::vector<std::string>& nasSymbolicKernels() {
  static const std::vector<std::string> kKernels = {"cg", "ep", "ft", "is",
                                                    "mg"};
  return kKernels;
}

}  // namespace ovp::nas
