#include "nas/skeletons.hpp"

#include <algorithm>
#include <utility>

#include "nas/block2d.hpp"
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

/// The frame of the unrolled LU, SP and BT builders.  Refuses a class grid
/// that does not split into `faces`-deep blocks (failures start with
/// "<kernel>: "), then calls body(rb, block, allreduce) for each rank,
/// where allreduce() appends the allreduce of one double those kernels take
/// their norms with: SymBuilder's expansion at site `norm_site`, built once
/// and lowered onto rb's rank at each call.
template <typename Body>
SkeletonBuildResult buildBlocked(const std::string& kernel,
                                 const tables::GridSizes& sz,
                                 const tables::FaceSpec& faces,
                                 const char* norm_site,
                                 const SkeletonParams& p, Body body) {
  const Grid2D pg = factor2d(p.nranks);
  if (const std::string why = Block2D::splitError(sz, pg, faces);
      !why.empty()) {
    return fail(kernel + ": " + why);
  }
  skel::sym::SymBuilder sb(norm_site);
  sb.site(norm_site);
  sb.mpiAllreduce(skel::sym::cst(1));
  const skel::sym::SymSkeleton allreduce = sb.take();
  std::string error;  // the first lowering failure
  Builder b(kernel, p.nranks);
  for (Rank me = 0; me < p.nranks; ++me) {
    RankBuilder& rb = b.rank(me);
    body(rb, Block2D(sz, pg, faces, me), [&] {
      std::string why = skel::sym::lowerRank(allreduce, rb);
      if (error.empty()) error = std::move(why);
    });
  }
  return finish(std::move(b), error);
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
  return buildBlocked("lu", sz, kFaces, "lu.residual", p, [&](
      RankBuilder& rb, const Block2D& blk, const auto& allreduce) {
    const int lnx = blk.lnx, lny = blk.lny, nz = blk.nz;
    const int col = lny * kNcomp, row = lnx * kNcomp;
    auto exchangeFaces = [&] {
      rb.site("lu.exchange");
      emitFaceExchange(rb, blk, p.cost);
    };
    auto residualNorm = [&] {
      rb.site("lu.residual");
      rb.compute(p.cost.flops(12LL * lnx * lny * nz * kNcomp));
      allreduce();
    };
    auto sweep = [&](bool forward) {
      rb.site(forward ? "lu.sweep_fwd" : "lu.sweep_bwd");
      const Rank up_x = forward ? blk.west : blk.east;
      const Rank dn_x = forward ? blk.east : blk.west;
      const Rank up_y = forward ? blk.north : blk.south;
      const Rank dn_y = forward ? blk.south : blk.north;
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
  });
}

// ---------------------------------------------------------------- SP ----

SkeletonBuildResult buildSp(const SkeletonParams& p) {
  using namespace tables::sp;  // NOLINT(google-build-using-namespace)
  const tables::GridSizes sz = sizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  return buildBlocked("sp", sz, kFaces, "sp.norm", p, [&](
      RankBuilder& rb, const Block2D& blk, const auto& allreduce) {
    const std::int64_t bp = blk.points();

    auto copyFaces = [&] {
      rb.site("sp.copy_faces");
      emitFaceExchange(rb, blk, p.cost);
    };

    auto normOf = [&] {
      rb.site("sp.norm");
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      allreduce();
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

    auto directional = [&](Axis axis) {
      static const char* const kSites[] = {"sp.x_solve", "sp.y_solve",
                                           "sp.z_solve"};
      const LineGeometry geo = blk.lines(axis);
      const bool along_x = axis == Axis::X;
      rb.site(kSites[static_cast<int>(axis)]);
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      solveBatch(geo.up, geo.down, along_x ? kTagFwdX : kTagFwdY,
                 along_x ? kTagBwdX : kTagBwdY, geo.count, geo.length);
      rb.compute(p.cost.flops(2 * bp * kNcomp));
    };

    rb.site("sp.init");
    rb.compute(p.cost.flops(8 * bp * kNcomp));
    for (int step = 0; step < niter; ++step) {
      copyFaces();
      rb.site("sp.rhs");
      rb.compute(p.cost.flops(25 * bp * kNcomp));
      normOf();
      directional(Axis::X);
      directional(Axis::Y);
      directional(Axis::Z);
      normOf();
      rb.site("sp.add");
      rb.compute(p.cost.flops(bp * kNcomp));
    }
    normOf();
  });
}

// ---------------------------------------------------------------- BT ----

SkeletonBuildResult buildBt(const SkeletonParams& p) {
  using namespace tables::bt;  // NOLINT(google-build-using-namespace)
  const tables::GridSizes sz = sizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  return buildBlocked("bt", sz, kFaces, "bt.norm", p, [&](
      RankBuilder& rb, const Block2D& blk, const auto& allreduce) {
    const std::int64_t bp = blk.points();

    auto copyFaces = [&] {
      rb.site("bt.copy_faces");
      emitFaceExchange(rb, blk, p.cost);
    };

    auto normOf = [&] {
      rb.site("bt.norm");
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      allreduce();
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

    auto runDirection = [&](Axis axis) {
      static const char* const kSites[] = {"bt.x_solve", "bt.y_solve",
                                           "bt.z_solve"};
      const LineGeometry geo = blk.lines(axis);
      const bool along_x = axis == Axis::X;
      rb.site(kSites[static_cast<int>(axis)]);
      rb.compute(p.cost.flops(2 * bp * kNcomp));
      solveBatch(geo.up, geo.down, along_x ? kTagFwdX : kTagFwdY,
                 along_x ? kTagBwdX : kTagBwdY, geo.count, geo.length);
      rb.compute(p.cost.flops(2 * bp * kNcomp));
    };

    rb.site("bt.init");
    rb.compute(p.cost.flops(8 * bp * kNcomp));
    for (int step = 0; step < niter; ++step) {
      copyFaces();
      rb.site("bt.rhs");
      rb.compute(p.cost.flops(10 * bp * kNcomp));
      normOf();
      runDirection(Axis::X);
      runDirection(Axis::Y);
      runDirection(Axis::Z);
      normOf();
      rb.site("bt.add");
      rb.compute(p.cost.flops(bp * kNcomp));
    }
    normOf();
  });
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
