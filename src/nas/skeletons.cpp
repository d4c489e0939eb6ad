#include "nas/skeletons.hpp"

#include <algorithm>
#include <utility>

#include "nas/class_tables.hpp"
#include "nas/symbolic.hpp"
#include "skeleton/builder.hpp"
#include "skeleton/symbolic/builder.hpp"
#include "skeleton/symbolic/instantiate.hpp"

namespace ovp::nas {

namespace {

using skel::Builder;
using skel::RankBuilder;
using tables::kD;
using tables::kNcomp;

SkeletonBuildResult fail(std::string why) {
  SkeletonBuildResult r;
  r.error = std::move(why);
  return r;
}

SkeletonBuildResult finish(Builder&& b, const std::string& lowering) {
  if (!lowering.empty()) return fail("internal: " + lowering);
  SkeletonBuildResult r;
  r.skeleton = b.take();
  const std::string err = r.skeleton.validate();
  if (!err.empty()) {
    return fail("internal: built an invalid skeleton: " + err);
  }
  return r;
}

/// The allreduce of one double LU, SP and BT take their norms with, as
/// SymBuilder expands it, at call site `site`.  Built once per skeleton and
/// lowered onto each rank at each call.
skel::sym::SymSkeleton allreduceOfOne(const char* site) {
  skel::sym::SymBuilder b(site);
  b.site(site);
  b.mpiAllreduce(skel::sym::cst(1));
  return b.take();
}

/// Lowers `frag` onto rb's rank, keeping the first failure in `error`.
void lowerOnto(const skel::sym::SymSkeleton& frag, RankBuilder& rb,
               std::string& error) {
  std::string why = skel::sym::lowerRank(frag, rb);
  if (error.empty()) error = std::move(why);
}

/// cg, ep, ft, is, mg: the rank-symbolic template, instantiated at P.
SkeletonBuildResult instantiateSymbolic(const std::string& kernel,
                                        const SkeletonParams& p) {
  const SymSkeletonBuildResult sym = buildNasSymSkeleton(kernel, p);
  if (!sym.ok()) return fail(sym.error);
  skel::sym::InstantiateResult inst =
      skel::sym::instantiate(sym.skeleton, p.nranks);
  if (!inst.ok()) return fail(kernel + ": " + inst.error);
  SkeletonBuildResult r;
  r.skeleton = std::move(inst.skeleton);
  return r;
}

// ---------------------------------------------------------------- LU ----

SkeletonBuildResult buildLu(const SkeletonParams& p) {
  using namespace tables::lu;  // NOLINT(google-build-using-namespace)
  const tables::GridSizes sz = sizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  const int P = p.nranks;
  const Grid2D pg = factor2d(P);
  if (const std::string why = tables::gridSplitError(sz, pg); !why.empty()) {
    return fail("lu: " + why);
  }
  const skel::sym::SymSkeleton allreduce = allreduceOfOne("lu.residual");
  std::string error;
  Builder b("lu", P);
  for (Rank me = 0; me < P; ++me) {
    RankBuilder& rb = b.rank(me);
    const int pi = static_cast<int>(me) % pg.px;
    const int pj = static_cast<int>(me) / pg.px;
    const Rank west = pi > 0 ? me - 1 : -1;
    const Rank east = pi < pg.px - 1 ? me + 1 : -1;
    const Rank north = pj > 0 ? me - pg.px : -1;
    const Rank south = pj < pg.py - 1 ? me + pg.px : -1;
    const int lnx = sz.nx / pg.px, lny = sz.ny / pg.py, nz = sz.nz;
    const int fx = lny * nz * kNcomp, fy = lnx * nz * kNcomp;
    const int col = lny * kNcomp, row = lnx * kNcomp;
    auto exchangeFaces = [&] {
      rb.site("lu.exchange");
      std::vector<int> reqs;
      if (west >= 0) reqs.push_back(rb.irecv(west, kTagFaceW, fx * kD));
      if (east >= 0) reqs.push_back(rb.irecv(east, kTagFaceW, fx * kD));
      if (north >= 0) reqs.push_back(rb.irecv(north, kTagFaceN, fy * kD));
      if (south >= 0) reqs.push_back(rb.irecv(south, kTagFaceN, fy * kD));
      if (west >= 0) reqs.push_back(rb.isend(west, kTagFaceW, fx * kD));
      if (east >= 0) reqs.push_back(rb.isend(east, kTagFaceW, fx * kD));
      if (north >= 0) reqs.push_back(rb.isend(north, kTagFaceN, fy * kD));
      if (south >= 0) reqs.push_back(rb.isend(south, kTagFaceN, fy * kD));
      rb.compute(p.cost.flops(4LL * (fx + fy)));
      rb.waitall(std::move(reqs));
      rb.compute(p.cost.flops(2LL * (fx + fy)));
    };
    auto residualNorm = [&] {
      rb.site("lu.residual");
      rb.compute(p.cost.flops(12LL * lnx * lny * nz * kNcomp));
      lowerOnto(allreduce, rb, error);
    };
    auto sweep = [&](bool forward) {
      rb.site(forward ? "lu.sweep_fwd" : "lu.sweep_bwd");
      const Rank up_x = forward ? west : east;
      const Rank dn_x = forward ? east : west;
      const Rank up_y = forward ? north : south;
      const Rank dn_y = forward ? south : north;
      const int ctag = forward ? kTagSweepCol : kTagBackCol;
      const int rtag = forward ? kTagSweepRow : kTagBackRow;
      for (int k = 0; k < nz; ++k) {
        if (up_x >= 0) rb.recv(up_x, ctag, col * kD);
        if (up_y >= 0) rb.recv(up_y, rtag, row * kD);
        rb.compute(p.cost.flops(9LL * lnx * lny * kNcomp));
        if (dn_x >= 0) rb.send(dn_x, ctag, col * kD);
        if (dn_y >= 0) rb.send(dn_y, rtag, row * kD);
      }
    };
    rb.site("lu.init");
    rb.compute(p.cost.flops(6LL * lnx * lny * nz * kNcomp));
    exchangeFaces();
    residualNorm();
    for (int it = 0; it < niter; ++it) {
      sweep(true);
      sweep(false);
      exchangeFaces();
      residualNorm();
    }
  }
  return finish(std::move(b), error);
}

// ---------------------------------------------------------------- SP ----

SkeletonBuildResult buildSp(const SkeletonParams& p) {
  using namespace tables::sp;  // NOLINT(google-build-using-namespace)
  const tables::GridSizes sz = sizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  const int P = p.nranks;
  const Grid2D pg = factor2d(P);
  if (const std::string why = tables::gridSplitError(sz, pg); !why.empty()) {
    return fail("sp: " + why);
  }
  const skel::sym::SymSkeleton allreduce = allreduceOfOne("sp.norm");
  std::string error;
  Builder b("sp", P);
  for (Rank me = 0; me < P; ++me) {
    RankBuilder& rb = b.rank(me);
    const int pi = static_cast<int>(me) % pg.px;
    const int pj = static_cast<int>(me) / pg.px;
    const Rank west = pi > 0 ? me - 1 : -1;
    const Rank east = pi < pg.px - 1 ? me + 1 : -1;
    const Rank north = pj > 0 ? me - pg.px : -1;
    const Rank south = pj < pg.py - 1 ? me + pg.px : -1;
    const int lnx = sz.nx / pg.px, lny = sz.ny / pg.py, nz = sz.nz;
    const std::int64_t bp = static_cast<std::int64_t>(lnx) * lny * nz;
    const int xface = 2 * lny * nz * kNcomp;
    const int yface = 2 * lnx * nz * kNcomp;

    auto copyFaces = [&] {
      rb.site("sp.copy_faces");
      std::vector<int> reqs;
      if (west >= 0) reqs.push_back(rb.irecv(west, kTagFace, xface * kD));
      if (east >= 0) reqs.push_back(rb.irecv(east, kTagFace, xface * kD));
      if (north >= 0) reqs.push_back(rb.irecv(north, kTagFace, yface * kD));
      if (south >= 0) reqs.push_back(rb.irecv(south, kTagFace, yface * kD));
      if (west >= 0) reqs.push_back(rb.isend(west, kTagFace, xface * kD));
      if (east >= 0) reqs.push_back(rb.isend(east, kTagFace, xface * kD));
      if (north >= 0) reqs.push_back(rb.isend(north, kTagFace, yface * kD));
      if (south >= 0) reqs.push_back(rb.isend(south, kTagFace, yface * kD));
      rb.compute(p.cost.flops(2LL * (xface + yface)));
      rb.waitall(std::move(reqs));
      rb.compute(p.cost.flops(2LL * (xface + yface)));
    };

    auto normOf = [&] {
      rb.site("sp.norm");
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      lowerOnto(allreduce, rb, error);
    };

    // Mirrors runSp's stage-pipelined solveBatch in the unmodified kernel,
    // so the Iprobe chunking collapses into one compute per window.
    auto solveBatch = [&](Rank up, Rank dn, int tag_fwd, int tag_bwd,
                          int lines, int n) {
      const int S = std::max(1, std::min(kStages, lines));
      auto stage = [&](int s) {
        return std::pair<int, int>{lines * s / S, lines * (s + 1) / S};
      };
      auto span = [&](int s) {
        const auto [l0, l1] = stage(s);
        return l1 - l0;
      };
      std::vector<int> rf(static_cast<std::size_t>(S), -1);
      std::vector<int> sf(static_cast<std::size_t>(S), -1);
      std::vector<int> rb_req(static_cast<std::size_t>(S), -1);
      std::vector<int> sb(static_cast<std::size_t>(S), -1);
      if (up >= 0) {
        for (int s = 0; s < S; ++s) {
          rf[static_cast<std::size_t>(s)] = rb.irecv(
              up, tag_fwd + s,
              static_cast<Bytes>(span(s)) * kFwdDoubles * kD);
        }
      }
      auto computeLhsStage = [&](int s) {
        rb.compute(p.cost.flops(48LL * span(s) * n * kNcomp));
      };
      auto emitStage = [&](int s) {
        rb.compute(p.cost.flops(10LL * span(s) * n * kNcomp));
        if (dn >= 0) {
          sf[static_cast<std::size_t>(s)] = rb.isend(
              dn, tag_fwd + s,
              static_cast<Bytes>(span(s)) * kFwdDoubles * kD);
        }
      };
      auto bookkeeping = [&](int s) {
        rb.compute(p.cost.flops(14LL * span(s) * n * kNcomp));
      };
      auto emitBack = [&](int s) {
        rb.compute(p.cost.flops(4LL * span(s) * n * kNcomp));
        if (up >= 0) {
          sb[static_cast<std::size_t>(s)] = rb.isend(
              up, tag_bwd + s,
              static_cast<Bytes>(span(s)) * kBwdDoubles * kD);
        }
      };
      if (dn < 0) {
        if (up >= 0) computeLhsStage(0);
        for (int s = 0; s < S; ++s) {
          if (up < 0) {
            computeLhsStage(s);
          } else {
            if (s + 1 < S) computeLhsStage(s + 1);
            rb.wait(rf[static_cast<std::size_t>(s)]);
          }
          emitStage(s);
          bookkeeping(s);
          emitBack(s);
        }
      } else {
        for (int s = 0; s < S; ++s) {
          rb_req[static_cast<std::size_t>(s)] = rb.irecv(
              dn, tag_bwd + s,
              static_cast<Bytes>(span(s)) * kBwdDoubles * kD);
        }
        if (up < 0) {
          for (int s = 0; s < S; ++s) {
            computeLhsStage(s);
            emitStage(s);
          }
        } else {
          computeLhsStage(0);
          for (int s = 0; s < S; ++s) {
            if (s + 1 < S) computeLhsStage(s + 1);
            rb.wait(rf[static_cast<std::size_t>(s)]);
            emitStage(s);
          }
        }
        bookkeeping(0);
        for (int s = 0; s < S; ++s) {
          if (s + 1 < S) bookkeeping(s + 1);
          rb.wait(rb_req[static_cast<std::size_t>(s)]);
          emitBack(s);
        }
      }
      if (dn >= 0) rb.waitall(std::move(sf));
      if (up >= 0) rb.waitall(std::move(sb));
    };

    auto directional = [&](const char* site, Rank up, Rank dn, int tf,
                           int tb, int lines, int n) {
      rb.site(site);
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      solveBatch(up, dn, tf, tb, lines, n);
      rb.compute(p.cost.flops(2 * bp * kNcomp));
    };

    rb.site("sp.init");
    rb.compute(p.cost.flops(8LL * lnx * lny * nz * kNcomp));
    for (int step = 0; step < niter; ++step) {
      copyFaces();
      rb.site("sp.rhs");
      rb.compute(p.cost.flops(25 * bp * kNcomp));
      normOf();
      directional("sp.x_solve", west, east, kTagFwdX, kTagBwdX,
                  lny * nz, lnx);
      directional("sp.y_solve", north, south, kTagFwdY, kTagBwdY,
                  lnx * nz, lny);
      directional("sp.z_solve", -1, -1, 0, 0, lnx * lny, nz);
      normOf();
      rb.site("sp.add");
      rb.compute(p.cost.flops(bp * kNcomp));
    }
    normOf();
  }
  return finish(std::move(b), error);
}

// ---------------------------------------------------------------- BT ----

SkeletonBuildResult buildBt(const SkeletonParams& p) {
  using namespace tables::bt;  // NOLINT(google-build-using-namespace)
  const tables::GridSizes sz = sizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  const int P = p.nranks;
  const Grid2D pg = factor2d(P);
  if (const std::string why = tables::gridSplitError(sz, pg); !why.empty()) {
    return fail("bt: " + why);
  }
  const skel::sym::SymSkeleton allreduce = allreduceOfOne("bt.norm");
  std::string error;
  Builder b("bt", P);
  for (Rank me = 0; me < P; ++me) {
    RankBuilder& rb = b.rank(me);
    const int pi = static_cast<int>(me) % pg.px;
    const int pj = static_cast<int>(me) / pg.px;
    const Rank west = pi > 0 ? me - 1 : -1;
    const Rank east = pi < pg.px - 1 ? me + 1 : -1;
    const Rank north = pj > 0 ? me - pg.px : -1;
    const Rank south = pj < pg.py - 1 ? me + pg.px : -1;
    const int lnx = sz.nx / pg.px, lny = sz.ny / pg.py, nz = sz.nz;
    const std::int64_t bp = static_cast<std::int64_t>(lnx) * lny * nz;
    const int xface = lny * nz * kNcomp;
    const int yface = lnx * nz * kNcomp;

    auto copyFaces = [&] {
      rb.site("bt.copy_faces");
      std::vector<int> reqs;
      if (west >= 0) reqs.push_back(rb.irecv(west, kTagFace, xface * kD));
      if (east >= 0) reqs.push_back(rb.irecv(east, kTagFace, xface * kD));
      if (north >= 0) reqs.push_back(rb.irecv(north, kTagFace, yface * kD));
      if (south >= 0) reqs.push_back(rb.irecv(south, kTagFace, yface * kD));
      if (west >= 0) reqs.push_back(rb.isend(west, kTagFace, xface * kD));
      if (east >= 0) reqs.push_back(rb.isend(east, kTagFace, xface * kD));
      if (north >= 0) reqs.push_back(rb.isend(north, kTagFace, yface * kD));
      if (south >= 0) reqs.push_back(rb.isend(south, kTagFace, yface * kD));
      rb.compute(p.cost.flops(2LL * (xface + yface)));
      rb.waitall(std::move(reqs));
      rb.compute(p.cost.flops(2LL * (xface + yface)));
    };

    auto normOf = [&] {
      rb.site("bt.norm");
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      lowerOnto(allreduce, rb, error);
    };

    auto solveBatch = [&](Rank up, Rank dn, int tag_fwd, int tag_bwd,
                          int blines, int bn) {
      int r_fwd = -1, s_fwd = -1, r_bwd = -1, s_bwd = -1;
      if (up >= 0) {
        r_fwd = rb.irecv(up, tag_fwd,
                         static_cast<Bytes>(blines) * kFwdDoubles * kD);
      }
      rb.compute(p.cost.flops(40LL * blines * bn * kNcomp));  // lhs window
      if (up >= 0) rb.wait(r_fwd);
      rb.compute(p.cost.flops(120LL * blines * bn * kNcomp));
      if (dn >= 0) {
        s_fwd = rb.isend(dn, tag_fwd,
                         static_cast<Bytes>(blines) * kFwdDoubles * kD);
        r_bwd = rb.irecv(dn, tag_bwd,
                         static_cast<Bytes>(blines) * kBwdDoubles * kD);
      }
      rb.compute(p.cost.flops(8LL * blines * bn * kNcomp));  // bookkeeping
      if (dn >= 0) rb.wait(r_bwd);
      rb.compute(p.cost.flops(30LL * blines * bn * kNcomp));
      if (up >= 0) {
        s_bwd = rb.isend(up, tag_bwd,
                         static_cast<Bytes>(blines) * kBwdDoubles * kD);
      }
      if (dn >= 0) rb.wait(s_fwd);
      if (up >= 0) rb.wait(s_bwd);
    };

    auto runDirection = [&](char dir) {
      const bool isx = dir == 'x', isy = dir == 'y';
      rb.site(isx ? "bt.x_solve" : (isy ? "bt.y_solve" : "bt.z_solve"));
      const int n = isx ? lnx : (isy ? lny : nz);
      const int lines = isx ? lny * nz : (isy ? lnx * nz : lnx * lny);
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      if (isx) {
        solveBatch(west, east, kTagFwdX, kTagBwdX, lines, n);
      } else if (isy) {
        solveBatch(north, south, kTagFwdY, kTagBwdY, lines, n);
      } else {
        solveBatch(-1, -1, 0, 0, lines, n);
      }
      rb.compute(p.cost.flops(2 * bp * kNcomp));
    };

    rb.site("bt.init");
    rb.compute(p.cost.flops(8 * bp * kNcomp));
    for (int step = 0; step < niter; ++step) {
      copyFaces();
      rb.site("bt.rhs");
      rb.compute(p.cost.flops(10 * bp * kNcomp));
      normOf();
      runDirection('x');
      runDirection('y');
      runDirection('z');
      normOf();
      rb.site("bt.add");
      rb.compute(p.cost.flops(bp * kNcomp));
    }
    normOf();
  }
  return finish(std::move(b), error);
}

}  // namespace

SkeletonBuildResult buildNasSkeleton(const std::string& kernel,
                                     const SkeletonParams& params) {
  if (params.nranks < 1) return fail("need at least one rank");
  if (kernel == "lu") return buildLu(params);
  if (kernel == "sp") return buildSp(params);
  if (kernel == "bt") return buildBt(params);
  const std::vector<std::string>& converted = nasSymbolicKernels();
  if (std::find(converted.begin(), converted.end(), kernel) !=
      converted.end()) {
    return instantiateSymbolic(kernel, params);
  }
  return fail("unknown kernel '" + kernel +
              "' (want bt|cg|ep|ft|is|lu|mg|sp)");
}

const std::vector<std::string>& nasSkeletonKernels() {
  static const std::vector<std::string> kKernels = {
      "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"};
  return kKernels;
}

}  // namespace ovp::nas
