#include "nas/sp.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "nas/class_tables.hpp"

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
  int n = 0;       // local points per line
  int g0 = 0;      // global index of local point 0
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
  if (std::string why = tables::gridSplitError(sz, pg); !why.empty()) {
    return cannotRun(std::move(why));
  }
  mpi::Machine machine(makeJobConfig(params));

  double checksum_out = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const Rank me = mpi.rank();
    const int pi = static_cast<int>(me) % pg.px;
    const int pj = static_cast<int>(me) / pg.px;
    const Rank west = pi > 0 ? me - 1 : -1;
    const Rank east = pi < pg.px - 1 ? me + 1 : -1;
    const Rank north = pj > 0 ? me - pg.px : -1;
    const Rank south = pj < pg.py - 1 ? me + pg.px : -1;
    const int lnx = sz.nx / pg.px, lny = sz.ny / pg.py, nz = sz.nz;
    const int x0 = pi * lnx, y0 = pj * lny;
    const CostModel& cost = params.cost;

    // u with two ghost layers in x and y (4th-order dissipation stencil).
    const int gx = lnx + 4, gy = lny + 4;
    auto uidx = [&](int i, int j, int k, int c) {
      // i,j are local interior indices in [0,lnx)/[0,lny); ghosts at -2..-1
      // and lnx..lnx+1 map via the +2 offset.
      return ((static_cast<std::size_t>(k) * gy +
               static_cast<std::size_t>(j + 2)) *
                  static_cast<std::size_t>(gx) +
              static_cast<std::size_t>(i + 2)) *
                 kNcomp +
             static_cast<std::size_t>(c);
    };
    std::vector<double> u(static_cast<std::size_t>(gx) * gy * nz * kNcomp,
                          0.0);
    std::vector<double> rhs(u.size(), 0.0);
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < lny; ++j) {
        for (int i = 0; i < lnx; ++i) {
          const int gi = x0 + i, gj = y0 + j;
          for (int c = 0; c < kNcomp; ++c) {
            u[uidx(i, j, k, c)] = std::sin(0.23 * gi + 0.11 * c) *
                                  std::cos(0.19 * gj) *
                                  std::sin(0.15 * (k + 1));
          }
        }
      }
    }
    mpi.compute(cost.flops(8LL * lnx * lny * nz * kNcomp));

    const std::int64_t block_pts = static_cast<std::int64_t>(lnx) * lny * nz;

    // ---------------- copy_faces: 2-layer ghost exchange of u -----------
    const int xface = 2 * lny * nz * kNcomp;
    const int yface = 2 * lnx * nz * kNcomp;
    std::vector<double> xw_o(static_cast<std::size_t>(xface)),
        xw_i(static_cast<std::size_t>(xface)),
        xe_o(static_cast<std::size_t>(xface)),
        xe_i(static_cast<std::size_t>(xface)),
        yn_o(static_cast<std::size_t>(yface)),
        yn_i(static_cast<std::size_t>(yface)),
        ys_o(static_cast<std::size_t>(yface)),
        ys_i(static_cast<std::size_t>(yface));
    auto copyFaces = [&] {
      auto packX = [&](int i_first, std::vector<double>& b) {
        std::size_t at = 0;
        for (int layer = 0; layer < 2; ++layer) {
          for (int k = 0; k < nz; ++k) {
            for (int j = 0; j < lny; ++j) {
              for (int c = 0; c < kNcomp; ++c) {
                b[at++] = u[uidx(i_first + layer, j, k, c)];
              }
            }
          }
        }
      };
      auto unpackX = [&](int i_first, const std::vector<double>& b) {
        std::size_t at = 0;
        for (int layer = 0; layer < 2; ++layer) {
          for (int k = 0; k < nz; ++k) {
            for (int j = 0; j < lny; ++j) {
              for (int c = 0; c < kNcomp; ++c) {
                u[uidx(i_first + layer, j, k, c)] = b[at++];
              }
            }
          }
        }
      };
      auto packY = [&](int j_first, std::vector<double>& b) {
        std::size_t at = 0;
        for (int layer = 0; layer < 2; ++layer) {
          for (int k = 0; k < nz; ++k) {
            for (int i = 0; i < lnx; ++i) {
              for (int c = 0; c < kNcomp; ++c) {
                b[at++] = u[uidx(i, j_first + layer, k, c)];
              }
            }
          }
        }
      };
      auto unpackY = [&](int j_first, const std::vector<double>& b) {
        std::size_t at = 0;
        for (int layer = 0; layer < 2; ++layer) {
          for (int k = 0; k < nz; ++k) {
            for (int i = 0; i < lnx; ++i) {
              for (int c = 0; c < kNcomp; ++c) {
                u[uidx(i, j_first + layer, k, c)] = b[at++];
              }
            }
          }
        }
      };
      std::vector<mpi::Request> reqs;
      if (west >= 0) reqs.push_back(mpi.irecvT(xw_i.data(), xface, west, kTagFace));
      if (east >= 0) reqs.push_back(mpi.irecvT(xe_i.data(), xface, east, kTagFace));
      if (north >= 0) reqs.push_back(mpi.irecvT(yn_i.data(), yface, north, kTagFace));
      if (south >= 0) reqs.push_back(mpi.irecvT(ys_i.data(), yface, south, kTagFace));
      if (west >= 0) {
        packX(0, xw_o);
        reqs.push_back(mpi.isendT(xw_o.data(), xface, west, kTagFace));
      }
      if (east >= 0) {
        packX(lnx - 2, xe_o);
        reqs.push_back(mpi.isendT(xe_o.data(), xface, east, kTagFace));
      }
      if (north >= 0) {
        packY(0, yn_o);
        reqs.push_back(mpi.isendT(yn_o.data(), yface, north, kTagFace));
      }
      if (south >= 0) {
        packY(lny - 2, ys_o);
        reqs.push_back(mpi.isendT(ys_o.data(), yface, south, kTagFace));
      }
      mpi.compute(cost.flops(2LL * (xface + yface)));
      // NPB's copy_faces has no computation to put here (paper Sec. 4.3):
      // the exchange is immediately waited on.
      mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
      if (west >= 0) unpackX(-2, xw_i);
      if (east >= 0) unpackX(lnx, xe_i);
      if (north >= 0) unpackY(-2, yn_i);
      if (south >= 0) unpackY(lny, ys_i);
      mpi.compute(cost.flops(2LL * (xface + yface)));
    };

    // ---------------- compute_rhs: stencil on u -------------------------
    auto computeRhs = [&] {
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              const double uc = u[uidx(i, j, k, c)];
              const double lap =
                  u[uidx(i - 1, j, k, c)] + u[uidx(i + 1, j, k, c)] +
                  u[uidx(i, j - 1, k, c)] + u[uidx(i, j + 1, k, c)] +
                  (k > 0 ? u[uidx(i, j, k - 1, c)] : 0.0) +
                  (k < nz - 1 ? u[uidx(i, j, k + 1, c)] : 0.0) - 6.0 * uc;
              const double diss_x =
                  u[uidx(i - 2, j, k, c)] - 4.0 * u[uidx(i - 1, j, k, c)] +
                  6.0 * uc - 4.0 * u[uidx(i + 1, j, k, c)] +
                  u[uidx(i + 2, j, k, c)];
              const double diss_y =
                  u[uidx(i, j - 2, k, c)] - 4.0 * u[uidx(i, j - 1, k, c)] +
                  6.0 * uc - 4.0 * u[uidx(i, j + 1, k, c)] +
                  u[uidx(i, j + 2, k, c)];
              rhs[uidx(i, j, k, c)] =
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

    // Direction-specific load/store between (u,rhs) grids and the batch.
    auto cdiagOf = [&](int i, int j, int k) {
      return 6.0 + 0.05 * std::sin(0.3 * u[uidx(i, j, k, 0)]);
    };

    auto xSolve = [&] {
      batch.resize(lny * nz, lnx);
      batch.g0 = x0;
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          const int l = k * lny + j;
          for (int i = 0; i < lnx; ++i) {
            const std::size_t p = batch.at(l, i);
            for (int c = 0; c < kNcomp; ++c) {
              batch.r[p * kNcomp + c] = rhs[uidx(i, j, k, c)];
            }
          }
        }
      }
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
      mpi::MpiSection section(mpi, "solve-overlap");
      solveBatch(west, east, kTagFwdX, kTagBwdX, [&](int l0, int l1) {
        for (int l = l0; l < l1; ++l) {
          const int k = l / lny, j = l % lny;
          for (int i = 0; i < lnx; ++i) {
            batch.cdiag[batch.at(l, i)] = cdiagOf(i, j, k);
          }
        }
      });
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          const int l = k * lny + j;
          for (int i = 0; i < lnx; ++i) {
            const std::size_t p = batch.at(l, i);
            for (int c = 0; c < kNcomp; ++c) {
              rhs[uidx(i, j, k, c)] = batch.r[p * kNcomp + c];
            }
          }
        }
      }
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
    };

    auto ySolve = [&] {
      batch.resize(lnx * nz, lny);
      batch.g0 = y0;
      for (int k = 0; k < nz; ++k) {
        for (int i = 0; i < lnx; ++i) {
          const int l = k * lnx + i;
          for (int j = 0; j < lny; ++j) {
            const std::size_t p = batch.at(l, j);
            for (int c = 0; c < kNcomp; ++c) {
              batch.r[p * kNcomp + c] = rhs[uidx(i, j, k, c)];
            }
          }
        }
      }
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
      mpi::MpiSection section(mpi, "solve-overlap");
      solveBatch(north, south, kTagFwdY, kTagBwdY, [&](int l0, int l1) {
        for (int l = l0; l < l1; ++l) {
          const int k = l / lnx, i = l % lnx;
          for (int j = 0; j < lny; ++j) {
            batch.cdiag[batch.at(l, j)] = cdiagOf(i, j, k);
          }
        }
      });
      for (int k = 0; k < nz; ++k) {
        for (int i = 0; i < lnx; ++i) {
          const int l = k * lnx + i;
          for (int j = 0; j < lny; ++j) {
            const std::size_t p = batch.at(l, j);
            for (int c = 0; c < kNcomp; ++c) {
              rhs[uidx(i, j, k, c)] = batch.r[p * kNcomp + c];
            }
          }
        }
      }
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
    };

    // Local z solve; also the exact-solve verification probe (one line).
    double zline_residual = 0.0;
    auto zSolve = [&] {
      batch.resize(lnx * lny, nz);
      batch.g0 = 0;
      for (int j = 0; j < lny; ++j) {
        for (int i = 0; i < lnx; ++i) {
          const int l = j * lnx + i;
          for (int k = 0; k < nz; ++k) {
            const std::size_t p = batch.at(l, k);
            for (int c = 0; c < kNcomp; ++c) {
              batch.r[p * kNcomp + c] = rhs[uidx(i, j, k, c)];
            }
          }
        }
      }
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
      // Keep line 0's original data to verify the solve exactly.
      std::vector<double> saved_r(static_cast<std::size_t>(nz) * kNcomp);
      std::vector<double> saved_c(static_cast<std::size_t>(nz));
      solveBatch(-1, -1, 0, 0, [&](int l0, int l1) {
        for (int l = l0; l < l1; ++l) {
          const int j = l / lnx, i = l % lnx;
          for (int k = 0; k < nz; ++k) {
            batch.cdiag[batch.at(l, k)] = cdiagOf(i, j, k);
            if (l == 0) {
              saved_c[static_cast<std::size_t>(k)] =
                  batch.cdiag[batch.at(l, k)];
              for (int c = 0; c < kNcomp; ++c) {
                saved_r[static_cast<std::size_t>(k) * kNcomp + c] =
                    rhs[uidx(i, j, k, c)];
              }
            }
          }
        }
      });
      // Residual of the sampled line: |A x - r|_inf.
      for (int k = 0; k < nz; ++k) {
        auto x = [&](int kk, int c) -> double {
          if (kk < 0 || kk >= nz) return 0.0;
          return batch.r[batch.at(0, kk) * kNcomp + c];
        };
        for (int c = 0; c < kNcomp; ++c) {
          const double ax = kOffA * x(k - 2, c) + kOffB * x(k - 1, c) +
                            saved_c[static_cast<std::size_t>(k)] * x(k, c) +
                            kOffB * x(k + 1, c) + kOffA * x(k + 2, c);
          zline_residual = std::max(
              zline_residual,
              std::fabs(ax - saved_r[static_cast<std::size_t>(k) * kNcomp + c]));
        }
      }
      for (int j = 0; j < lny; ++j) {
        for (int i = 0; i < lnx; ++i) {
          const int l = j * lnx + i;
          for (int k = 0; k < nz; ++k) {
            const std::size_t p = batch.at(l, k);
            for (int c = 0; c < kNcomp; ++c) {
              rhs[uidx(i, j, k, c)] = batch.r[p * kNcomp + c];
            }
          }
        }
      }
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
    };

    auto normOf = [&](const std::vector<double>& v) {
      double local = 0;
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              const double x = v[uidx(i, j, k, c)];
              local += x * x;
            }
          }
        }
      }
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
      double global = 0;
      mpi.allreduce(&local, &global, 1, mpi::Op::Sum);
      return std::sqrt(global);
    };

    // ------------------------------ time steps --------------------------
    for (int step = 0; step < niter; ++step) {
      copyFaces();
      computeRhs();
      const double pre = normOf(rhs);
      xSolve();
      ySolve();
      zSolve();
      const double post = normOf(rhs);
      if (me == 0) {
        // Each solve is a diagonally dominant contraction.
        if (!(post < pre * 1.001) || !std::isfinite(post)) verified = false;
        if (zline_residual > 1e-9) verified = false;
      }
      // add: u += du.
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              u[uidx(i, j, k, c)] += rhs[uidx(i, j, k, c)];
            }
          }
        }
      }
      mpi.compute(cost.flops(block_pts * kNcomp));
    }
    const double final_norm = normOf(u);
    if (me == 0) {
      checksum_out = final_norm;
      if (!std::isfinite(final_norm)) verified = false;
    }
  });

  NasResult out;
  out.checksum = checksum_out;
  out.verified = verified;
  out.time = machine.finishTime();
  out.reports = machine.reports();
  out.diagnostics = machine.diagnostics();
  out.trace = machine.traceCollector();
  return out;
}

}  // namespace ovp::nas
