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

  const auto lnxAt = [&](const ExprP& l) {
    return floordiv(floordiv(n, pow2(l)), px);
  };
  const auto lnyAt = [&](const ExprP& l) {
    return floordiv(floordiv(n, pow2(l)), py);
  };
  const auto lnzAt = [&](const ExprP& l) {
    return floordiv(floordiv(n, pow2(l)), pz);
  };
  const auto pointsAt = [&](const ExprP& l) {
    return mul(mul(lnxAt(l), lnyAt(l)), lnzAt(l));
  };
  const auto faceAt = [&](const ExprP& l, int d) {
    switch (d / 2) {
      case 0: return mul(lnyAt(l), lnzAt(l));
      case 1: return mul(lnxAt(l), lnzAt(l));
      default: return mul(lnxAt(l), lnyAt(l));
    }
  };
  const auto faceInclAt = [&](const ExprP& l, int d) {
    switch (d / 2) {
      case 0: return mul(lnyAt(l), lnzAt(l));
      case 1: return mul(add(lnxAt(l), cst(2)), lnzAt(l));
      default: return mul(add(lnxAt(l), cst(2)), add(lnyAt(l), cst(2)));
    }
  };

  const ExprP cx = mod(rnk(), px);
  const ExprP cy = mod(floordiv(rnk(), px), py);
  const ExprP cz = floordiv(rnk(), mul(px, py));
  struct Dir {
    Guard g;
    ExprP peer;
  };
  const auto dirAt = [&](int d) -> Dir {
    switch (d) {
      case 0: return {{Cond{cx, CmpOp::Ge, cst(1)}}, sub(rnk(), cst(1))};
      case 1:
        return {{Cond{cx, CmpOp::Le, sub(px, cst(2))}}, add(rnk(), cst(1))};
      case 2: return {{Cond{cy, CmpOp::Ge, cst(1)}}, sub(rnk(), px)};
      case 3:
        return {{Cond{cy, CmpOp::Le, sub(py, cst(2))}}, add(rnk(), px)};
      case 4:
        return {{Cond{cz, CmpOp::Ge, cst(1)}}, sub(rnk(), mul(px, py))};
      default:
        return {{Cond{cz, CmpOp::Le, sub(pz, cst(2))}},
                add(rnk(), mul(px, py))};
    }
  };
  const auto tagAt = [&](const ExprP& l, int d) {
    return add(add(cst(tables::kMgTagExch), mul(l, cst(8))), cst(d));
  };

  const auto begin = [&](const ExprP& l) {
    if (is_mpi) {
      for (int d = 0; d < 6; ++d) {
        const Dir dir = dirAt(d);
        b.guarded(dir.g, [&] {
          // Message = sender's packed face (not the ghost-inclusive
          // receive buffer): MATCH records carry the sender's bytes.
          b.irecv(dir.peer, tagAt(l, d), mul(faceAt(l, d), cst(kD)));
        });
      }
      for (int d = 0; d < 6; ++d) {
        const Dir dir = dirAt(d);
        b.guarded(dir.g, [&] {
          b.isend(dir.peer, tagAt(l, d ^ 1), mul(faceAt(l, d), cst(kD)));
        });
      }
    } else {
      for (int d = 0; d < 6; ++d) {
        const Dir dir = dirAt(d);
        b.guarded(dir.g, [&] {
          b.put(dir.peer, mul(faceAt(l, d), cst(kD)), nonblocking);
        });
      }
    }
  };
  const auto end = [&] {
    if (is_mpi) {
      b.waitall();
    } else {
      if (nonblocking) b.fence(cst(0));
      b.barrier();  // everyone's puts are in the inboxes
      b.barrier();  // inboxes free for reuse
    }
  };
  const auto seq = [&](const ExprP& l) {
    for (int axis = 0; axis < 3; ++axis) {
      if (is_mpi) {
        for (int s = 0; s < 2; ++s) {
          const int d = axis * 2 + s;
          const Dir dir = dirAt(d);
          b.guarded(dir.g, [&] {
            b.irecv(dir.peer, tagAt(l, d), mul(faceInclAt(l, d), cst(kD)));
          });
        }
        for (int s = 0; s < 2; ++s) {
          const int d = axis * 2 + s;
          const Dir dir = dirAt(d);
          b.guarded(dir.g, [&] {
            b.isend(dir.peer, tagAt(l, d ^ 1),
                    mul(faceInclAt(l, d), cst(kD)));
          });
        }
        b.waitall();
      } else {
        for (int s = 0; s < 2; ++s) {
          const int d = axis * 2 + s;
          const Dir dir = dirAt(d);
          b.guarded(dir.g, [&] {
            b.put(dir.peer, mul(faceInclAt(l, d), cst(kD)), false);
          });
        }
        b.barrier();
        b.barrier();
      }
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
  const auto interior = [&](const ExprP& l) -> Guard {
    return {Cond{lnxAt(l), CmpOp::Ge, cst(3)},
            Cond{lnyAt(l), CmpOp::Ge, cst(3)},
            Cond{lnzAt(l), CmpOp::Ge, cst(3)}};
  };
  const auto smooth = [&](const ExprP& l) {
    b.site("mg.smooth");
    begin(l);
    b.guarded(interior(l), [&] {
      b.compute(mul(cst(10), mul(mul(sub(lnxAt(l), cst(2)),
                                     sub(lnyAt(l), cst(2))),
                                 sub(lnzAt(l), cst(2)))));
    });
    end();
    b.compute(mul(cst(12), pointsAt(l)));
  };
  const auto residualNorm = [&] {
    b.site("mg.norm");
    begin(cst(0));
    end();
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
      b.site("mg.residual");
      begin(l);
      b.guarded(interior(l), [&] {
        b.compute(mul(cst(9), mul(mul(sub(lnxAt(l), cst(2)),
                                      sub(lnyAt(l), cst(2))),
                                  sub(lnzAt(l), cst(2)))));
      });
      end();
      b.compute(mul(cst(9), pointsAt(l)));
      const ExprP c = add(l, cst(1));
      b.site("mg.restrict");
      begin(l);
      b.guarded({Cond{sub(lnxAt(c), cst(1)), CmpOp::Ge, cst(1)},
                 Cond{sub(lnyAt(c), cst(1)), CmpOp::Ge, cst(1)},
                 Cond{sub(lnzAt(c), cst(1)), CmpOp::Ge, cst(1)}},
                [&] {
                  b.compute(mul(cst(9), mul(mul(sub(lnxAt(c), cst(1)),
                                                sub(lnyAt(c), cst(1))),
                                            sub(lnzAt(c), cst(1)))));
                });
      end();
      b.compute(mul(cst(9), pointsAt(c)));
    });
    b.loop("s", cst(0), cst(tables::kMgCoarseSweeps),
           [&] { smooth(sub(nlevels, cst(1))); });
    b.rloop("u", sub(nlevels, cst(2)), cst(0), [&] {
      const ExprP l = var("u");
      b.site("mg.prolong");
      seq(add(l, cst(1)));
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
