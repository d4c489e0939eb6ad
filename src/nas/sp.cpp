#include "nas/sp.hpp"

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nas/block2d.hpp"

namespace ovp::nas {

namespace {

using tables::kNcomp;
using namespace tables::sp;  // NOLINT(google-build-using-namespace)

/// How many chunks the overlapped computation is split into (an Iprobe
/// runs between chunks when `modified`).
constexpr int kIprobeChunks = 8;

constexpr double kOffA = 0.5;   // coupling to i-2 / i+2
constexpr double kOffB = -1.5;  // coupling to i-1 / i+1

/// Pentadiagonal line batch in canonical layout: r[(line*n + i)*5 + c],
/// cdiag[line*n + i].  After solve(), r holds the solution and dn/en the
/// normalized upper coefficients.
struct PentaBatch {
  int nlines = 0;
  int n = 0;  // local points per line
  std::vector<double> r, cdiag, dn, en;

  void resize(int lines, int pts) {
    nlines = lines;
    n = pts;
    r.assign(static_cast<std::size_t>(lines) * pts * kNcomp, 0.0);
    cdiag.assign(static_cast<std::size_t>(lines) * pts, 0.0);
    dn.assign(static_cast<std::size_t>(lines) * pts, 0.0);
    en.assign(static_cast<std::size_t>(lines) * pts, 0.0);
  }
  [[nodiscard]] std::size_t at(int line, int i) const {
    return static_cast<std::size_t>(line) * n + static_cast<std::size_t>(i);
  }
};

}  // namespace

NasResult runSp(const SpParams& params) {
  const tables::GridSizes sz = sizes(params.cls);
  const int niter = params.iterations > 0 ? params.iterations : sz.niter;
  const Grid2D pg = factor2d(params.nranks);
  if (std::string why = Block2D::splitError(sz, pg, kFaces); !why.empty()) {
    return cannotRun(std::move(why));
  }
  mpi::Machine machine(makeJobConfig(params));

  double checksum_out = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const Rank me = mpi.rank();
    const Block2D blk(sz, pg, kFaces, me);
    const int lnx = blk.lnx, lny = blk.lny, nz = blk.nz;
    const CostModel& cost = params.cost;

    // u with two ghost layers in x and y (4th-order dissipation stencil).
    std::vector<double> u(blk.size(), 0.0);
    std::vector<double> rhs(u.size(), 0.0);
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < lny; ++j) {
        for (int i = 0; i < lnx; ++i) {
          const int gi = blk.x0 + i, gj = blk.y0 + j;
          for (int c = 0; c < kNcomp; ++c) {
            u[blk.at(i, j, k, c)] = std::sin(0.23 * gi + 0.11 * c) *
                                    std::cos(0.19 * gj) *
                                    std::sin(0.15 * (k + 1));
          }
        }
      }
    }
    mpi.compute(cost.flops(8LL * lnx * lny * nz * kNcomp));

    const std::int64_t block_pts = blk.points();

    // copy_faces: 2-layer ghost exchange of u.  NPB's copy_faces has no
    // computation to put between posting and waiting (paper Sec. 4.3).
    FaceExchange faces(blk);

    // ---------------- compute_rhs: stencil on u -------------------------
    auto computeRhs = [&] {
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              const double uc = u[blk.at(i, j, k, c)];
              const double lap =
                  u[blk.at(i - 1, j, k, c)] + u[blk.at(i + 1, j, k, c)] +
                  u[blk.at(i, j - 1, k, c)] + u[blk.at(i, j + 1, k, c)] +
                  (k > 0 ? u[blk.at(i, j, k - 1, c)] : 0.0) +
                  (k < nz - 1 ? u[blk.at(i, j, k + 1, c)] : 0.0) - 6.0 * uc;
              const double diss_x =
                  u[blk.at(i - 2, j, k, c)] - 4.0 * u[blk.at(i - 1, j, k, c)] +
                  6.0 * uc - 4.0 * u[blk.at(i + 1, j, k, c)] +
                  u[blk.at(i + 2, j, k, c)];
              const double diss_y =
                  u[blk.at(i, j - 2, k, c)] - 4.0 * u[blk.at(i, j - 1, k, c)] +
                  6.0 * uc - 4.0 * u[blk.at(i, j + 1, k, c)] +
                  u[blk.at(i, j + 2, k, c)];
              rhs[blk.at(i, j, k, c)] =
                  0.1 * lap - 0.02 * (diss_x + diss_y);
            }
          }
        }
      }
      mpi.compute(cost.flops(25LL * block_pts * kNcomp));
    };

    // -------------- distributed pentadiagonal line solve ----------------
    PentaBatch batch;
    std::vector<double> fwd_in, fwd_out, bwd_in, bwd_out;
    // The overlapped computation of one stage: the lhs factorization
    // (cdiag from u) for lines [l0,l1), split into chunks with optional
    // Iprobes between them (the paper's modification).
    auto computeLhsChunked = [&](int l0, int l1,
                                 const std::function<void(int, int)>& fill) {
      int done = l0;
      for (int ch = 0; ch < kIprobeChunks; ++ch) {
        const int upto = l0 + (l1 - l0) * (ch + 1) / kIprobeChunks;
        if (upto > done) {
          fill(done, upto);
          mpi.compute(cost.flops(48LL * (upto - done) * batch.n * kNcomp));
          done = upto;
        }
        if (params.modified && ch + 1 < kIprobeChunks) {
          (void)mpi.iprobe(mpi::kAnySource, mpi::kAnyTag);
        }
      }
    };

    // The solve is pipelined in kStages blocks of lines: while stage s's
    // boundary data is in flight from the upstream rank, this rank is busy
    // on stage s's lhs — the "computing in between the posting of an Irecv
    // and waiting" structure of NPB SP.  Under the polling engine that
    // in-flight rendezvous only progresses if something calls the library
    // during the computation (the Iprobes of the modified version).
    auto eliminateLine = [&](int l) {
        const double* in = fwd_in.data() +
                           static_cast<std::size_t>(l) * kFwdDoubles;
        double d2 = in[0], e2 = in[1];
        double r2[kNcomp], d1 = in[2 + kNcomp], e1 = in[3 + kNcomp];
        double r1[kNcomp];
        for (int c = 0; c < kNcomp; ++c) {
          r2[c] = in[2 + c];
          r1[c] = in[4 + kNcomp + c];
        }
        for (int i = 0; i < batch.n; ++i) {
          const std::size_t p = batch.at(l, i);
          const double a = kOffA, b = kOffB, d = kOffB, e = kOffA;
          const double c0 = batch.cdiag[p];
          double bp = b - a * d2;
          double cp = c0 - a * e2;
          double cpp = cp - bp * d1;
          const double dpp = d - bp * e1;
          const double dN = dpp / cpp;
          const double eN = e / cpp;
          batch.dn[p] = dN;
          batch.en[p] = eN;
          double rN[kNcomp];
          for (int c = 0; c < kNcomp; ++c) {
            const double rp = batch.r[p * kNcomp + c] - a * r2[c];
            const double rpp = rp - bp * r1[c];
            rN[c] = rpp / cpp;
            batch.r[p * kNcomp + c] = rN[c];
          }
          d2 = d1;
          e2 = e1;
          for (int c = 0; c < kNcomp; ++c) r2[c] = r1[c];
          d1 = dN;
          e1 = eN;
          for (int c = 0; c < kNcomp; ++c) r1[c] = rN[c];
        }
        double* out = fwd_out.data() +
                      static_cast<std::size_t>(l) * kFwdDoubles;
        out[0] = d2;
        out[1] = e2;
        for (int c = 0; c < kNcomp; ++c) out[2 + c] = r2[c];
        out[2 + kNcomp] = d1;
        out[3 + kNcomp] = e1;
        for (int c = 0; c < kNcomp; ++c) out[4 + kNcomp + c] = r1[c];
    };

    auto backsubstLine = [&](int l) {
      const double* in =
          bwd_in.data() + static_cast<std::size_t>(l) * kBwdDoubles;
      double x1[kNcomp], x2[kNcomp];  // solutions at g0+n, g0+n+1
      for (int c = 0; c < kNcomp; ++c) {
        x1[c] = in[c];
        x2[c] = in[kNcomp + c];
      }
      for (int i = batch.n - 1; i >= 0; --i) {
        const std::size_t p = batch.at(l, i);
        for (int c = 0; c < kNcomp; ++c) {
          const double x = batch.r[p * kNcomp + c] - batch.dn[p] * x1[c] -
                           batch.en[p] * x2[c];
          x2[c] = x1[c];
          x1[c] = x;
          batch.r[p * kNcomp + c] = x;
        }
      }
      double* out =
          bwd_out.data() + static_cast<std::size_t>(l) * kBwdDoubles;
      for (int c = 0; c < kNcomp; ++c) {
        out[c] = batch.r[batch.at(l, 0) * kNcomp + c];
        out[kNcomp + c] = batch.r[batch.at(l, 1) * kNcomp + c];
      }
    };

    auto solveBatch = [&](Rank up, Rank dn, int tag_fwd, int tag_bwd,
                          const std::function<void(int, int)>& fillLhs) {
      const int lines = batch.nlines;
      const int S = std::max(1, std::min(kStages, lines));
      fwd_in.assign(static_cast<std::size_t>(lines) * kFwdDoubles, 0.0);
      fwd_out.assign(static_cast<std::size_t>(lines) * kFwdDoubles, 0.0);
      bwd_in.assign(static_cast<std::size_t>(lines) * kBwdDoubles, 0.0);
      bwd_out.assign(static_cast<std::size_t>(lines) * kBwdDoubles, 0.0);
      auto stage = [&](int s) {
        return std::pair<int, int>{lines * s / S, lines * (s + 1) / S};
      };

      // --- forward elimination, stage-pipelined ---
      std::vector<mpi::Request> rf(static_cast<std::size_t>(S)),
          sf(static_cast<std::size_t>(S)), rb(static_cast<std::size_t>(S)),
          sb(static_cast<std::size_t>(S));
      if (up >= 0) {
        for (int s = 0; s < S; ++s) {
          const auto [l0, l1] = stage(s);
          rf[static_cast<std::size_t>(s)] = mpi.irecvT(
              fwd_in.data() + static_cast<std::size_t>(l0) * kFwdDoubles,
              (l1 - l0) * kFwdDoubles, up, tag_fwd + s);
        }
      }
      // Lookahead software pipeline (the multipartition effect): a rank
      // with an upstream neighbor factors stage s+1's lhs — a long,
      // call-free computation — while stage s's boundary message is in
      // flight.  The chain head has nothing to wait for and eliminates
      // each stage as soon as its lhs is ready, which is what puts every
      // downstream message in flight *during* its receiver's computation.
      // Under the polling engine that in-flight rendezvous makes no
      // progress during the computation unless the modified version's
      // Iprobes drive the library (paper Sec. 4.3).
      auto emitStage = [&](int s) {
        const auto [l0, l1] = stage(s);
        for (int l = l0; l < l1; ++l) eliminateLine(l);
        mpi.compute(cost.flops(10LL * (l1 - l0) * batch.n * kNcomp));
        if (dn >= 0) {
          sf[static_cast<std::size_t>(s)] = mpi.isendT(
              fwd_out.data() + static_cast<std::size_t>(l0) * kFwdDoubles,
              (l1 - l0) * kFwdDoubles, dn, tag_fwd + s);
        }
      };
      // Post-elimination bookkeeping of one stage: the second call-free
      // computation window.
      auto bookkeeping = [&](int s) {
        const auto [l0, l1] = stage(s);
        for (int ch = 0; ch < kIprobeChunks; ++ch) {
          mpi.compute(
              cost.flops(14LL * (l1 - l0) * batch.n * kNcomp / kIprobeChunks));
          if (params.modified && ch + 1 < kIprobeChunks) {
            (void)mpi.iprobe(mpi::kAnySource, mpi::kAnyTag);
          }
        }
      };
      auto emitBack = [&](int s) {
        const auto [l0, l1] = stage(s);
        for (int l = l0; l < l1; ++l) backsubstLine(l);
        mpi.compute(cost.flops(4LL * (l1 - l0) * batch.n * kNcomp));
        if (up >= 0) {
          sb[static_cast<std::size_t>(s)] = mpi.isendT(
              bwd_out.data() + static_cast<std::size_t>(l0) * kBwdDoubles,
              (l1 - l0) * kBwdDoubles, up, tag_bwd + s);
        }
      };
      auto computeLhsStage = [&](int s) {
        const auto [l0, l1] = stage(s);
        computeLhsChunked(l0, l1, fillLhs);
      };

      if (dn < 0) {
        // Chain tail: back-substitute each stage the moment it is
        // eliminated, so the return-sweep messages are in flight while the
        // upstream ranks are still computing forward stages.
        if (up >= 0) computeLhsStage(0);
        for (int s = 0; s < S; ++s) {
          if (up < 0) {
            computeLhsStage(s);
          } else {
            if (s + 1 < S) computeLhsStage(s + 1);  // overlap window
            mpi.wait(rf[static_cast<std::size_t>(s)]);
          }
          emitStage(s);
          bookkeeping(s);
          emitBack(s);
        }
      } else {
        // Return-sweep receives (from downstream, in its emit order).
        for (int s = 0; s < S; ++s) {
          const auto [l0, l1] = stage(s);
          rb[static_cast<std::size_t>(s)] = mpi.irecvT(
              bwd_in.data() + static_cast<std::size_t>(l0) * kBwdDoubles,
              (l1 - l0) * kBwdDoubles, dn, tag_bwd + s);
        }
        // Forward sweep.
        if (up < 0) {
          for (int s = 0; s < S; ++s) {
            computeLhsStage(s);
            emitStage(s);
          }
        } else {
          computeLhsStage(0);
          for (int s = 0; s < S; ++s) {
            if (s + 1 < S) computeLhsStage(s + 1);  // overlap window
            mpi.wait(rf[static_cast<std::size_t>(s)]);
            emitStage(s);
          }
        }
        // Return sweep with bookkeeping lookahead.
        bookkeeping(0);
        for (int s = 0; s < S; ++s) {
          if (s + 1 < S) bookkeeping(s + 1);  // overlap window
          mpi.wait(rb[static_cast<std::size_t>(s)]);
          emitBack(s);
        }
      }
      if (dn >= 0) mpi.waitall(sf.data(), S);
      if (up >= 0) mpi.waitall(sb.data(), S);
    };

    // The lhs diagonal of the cell whose u starts at storage offset `cell`.
    auto cdiagOf = [&](std::size_t cell) {
      return 6.0 + 0.05 * std::sin(0.3 * u[cell]);
    };

    // One directional solve: gather the axis' lines of rhs into the batch,
    // solve them (pipelined across the neighbours along x and y; the x and
    // y solves are the paper's overlapping section), scatter back.  The
    // local z solve also probes line 0 for an exact-solve check.
    double zline_residual = 0.0;
    auto solveLines = [&](Axis axis) {
      const LineGeometry geo = blk.lines(axis);
      batch.resize(geo.count, geo.length);
      geo.forPoints(0, geo.count, [&](std::size_t p, std::size_t cell) {
        for (int c = 0; c < kNcomp; ++c) {
          batch.r[p * kNcomp + c] = rhs[cell + c];
        }
      });
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
      std::optional<mpi::MpiSection> section;
      if (axis != Axis::Z) section.emplace(mpi, "solve-overlap");
      auto fill = [&](int l0, int l1) {
        geo.forPoints(l0, l1, [&](std::size_t p, std::size_t cell) {
          batch.cdiag[p] = cdiagOf(cell);
        });
      };
      // z lines have no neighbours, so their tags are never used.
      const bool along_x = axis == Axis::X;
      solveBatch(geo.up, geo.down, along_x ? kTagFwdX : kTagFwdY,
                 along_x ? kTagBwdX : kTagBwdY, fill);
      if (axis == Axis::Z) {
        // Residual of line 0, |A x - r|_inf, from the solve's own lhs
        // diagonal and the rhs it has not yet overwritten.
        auto x = [&](int kk, int c) -> double {
          if (kk < 0 || kk >= nz) return 0.0;
          return batch.r[batch.at(0, kk) * kNcomp + c];
        };
        geo.forPoints(0, 1, [&](std::size_t p, std::size_t cell) {
          const int k = static_cast<int>(p);
          for (int c = 0; c < kNcomp; ++c) {
            const double ax = kOffA * x(k - 2, c) + kOffB * x(k - 1, c) +
                              batch.cdiag[p] * x(k, c) + kOffB * x(k + 1, c) +
                              kOffA * x(k + 2, c);
            zline_residual =
                std::max(zline_residual, std::fabs(ax - rhs[cell + c]));
          }
        });
      }
      geo.forPoints(0, geo.count, [&](std::size_t p, std::size_t cell) {
        for (int c = 0; c < kNcomp; ++c) {
          rhs[cell + c] = batch.r[p * kNcomp + c];
        }
      });
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
    };

    // ------------------------------ time steps --------------------------
    for (int step = 0; step < niter; ++step) {
      faces.run(mpi, u, cost);
      computeRhs();
      const double pre = blockNorm(mpi, blk, rhs, cost);
      solveLines(Axis::X);
      solveLines(Axis::Y);
      solveLines(Axis::Z);
      const double post = blockNorm(mpi, blk, rhs, cost);
      if (me == 0) {
        // Each solve is a diagonally dominant contraction.
        if (!(post < pre * 1.001) || !std::isfinite(post)) verified = false;
        if (zline_residual > 1e-9) verified = false;
      }
      // add: u += du.
      blk.forInterior([&](std::size_t p) { u[p] += rhs[p]; });
      mpi.compute(cost.flops(block_pts * kNcomp));
    }
    const double final_norm = blockNorm(mpi, blk, u, cost);
    if (me == 0) {
      checksum_out = final_norm;
      if (!std::isfinite(final_norm)) verified = false;
    }
  });

  return nasResult(machine, checksum_out, verified);
}

}  // namespace ovp::nas
