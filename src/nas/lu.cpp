#include "nas/lu.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "nas/class_tables.hpp"

namespace ovp::nas {

namespace {

using tables::kNcomp;
using namespace tables::lu;  // NOLINT(google-build-using-namespace)

}  // namespace

NasResult runLu(const NasParams& params) {
  const tables::GridSizes sz = sizes(params.cls);
  const int niter = params.iterations > 0 ? params.iterations : sz.niter;
  const Grid2D pg = factor2d(params.nranks);
  if (std::string why = tables::gridSplitError(sz, pg); !why.empty()) {
    return cannotRun(std::move(why));
  }
  mpi::Machine machine(makeJobConfig(params));

  double residual_out = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const Rank me = mpi.rank();
    const int pi = static_cast<int>(me) % pg.px;  // x position in proc grid
    const int pj = static_cast<int>(me) / pg.px;  // y position
    const Rank west = pi > 0 ? me - 1 : -1;
    const Rank east = pi < pg.px - 1 ? me + 1 : -1;
    const Rank north = pj > 0 ? me - pg.px : -1;
    const Rank south = pj < pg.py - 1 ? me + pg.px : -1;
    const int lnx = sz.nx / pg.px, lny = sz.ny / pg.py, nz = sz.nz;
    const int x0 = pi * lnx, y0 = pj * lny;
    const CostModel& cost = params.cost;

    // u with one ghost layer in x and y: (lnx+2) x (lny+2) x nz x kNcomp.
    const int gx = lnx + 2, gy = lny + 2;
    auto idx = [&](int i, int j, int k, int c) {
      return ((static_cast<std::size_t>(k) * gy + static_cast<std::size_t>(j)) *
                  static_cast<std::size_t>(gx) +
              static_cast<std::size_t>(i)) *
                 kNcomp +
             static_cast<std::size_t>(c);
    };
    std::vector<double> u(static_cast<std::size_t>(gx) * gy * nz * kNcomp,
                          0.0);
    std::vector<double> f(u.size(), 0.0);
    // Smooth, globally defined source term.
    for (int k = 0; k < nz; ++k) {
      for (int j = 1; j <= lny; ++j) {
        for (int i = 1; i <= lnx; ++i) {
          const int gxi = x0 + i - 1, gyj = y0 + j - 1;
          for (int c = 0; c < kNcomp; ++c) {
            f[idx(i, j, k, c)] =
                std::sin(0.21 * gxi + 0.1 * c) * std::cos(0.17 * gyj) *
                std::sin(0.13 * (k + 1));
          }
        }
      }
    }
    mpi.compute(cost.flops(6LL * lnx * lny * nz * kNcomp));

    const int face_x_count = lny * nz * kNcomp;  // west/east face doubles
    const int face_y_count = lnx * nz * kNcomp;  // north/south face doubles
    std::vector<double> wbuf_out(static_cast<std::size_t>(face_x_count)),
        wbuf_in(static_cast<std::size_t>(face_x_count)),
        ebuf_out(static_cast<std::size_t>(face_x_count)),
        ebuf_in(static_cast<std::size_t>(face_x_count)),
        nbuf_out(static_cast<std::size_t>(face_y_count)),
        nbuf_in(static_cast<std::size_t>(face_y_count)),
        sbuf_out(static_cast<std::size_t>(face_y_count)),
        sbuf_in(static_cast<std::size_t>(face_y_count));

    // Ghost-face exchange (NPB LU's exchange_3): full x/y faces of u.
    auto exchangeFaces = [&] {
      std::vector<mpi::Request> reqs;
      auto packX = [&](int i, std::vector<double>& buf) {
        std::size_t at = 0;
        for (int k = 0; k < nz; ++k) {
          for (int j = 1; j <= lny; ++j) {
            for (int c = 0; c < kNcomp; ++c) buf[at++] = u[idx(i, j, k, c)];
          }
        }
      };
      auto unpackX = [&](int i, const std::vector<double>& buf) {
        std::size_t at = 0;
        for (int k = 0; k < nz; ++k) {
          for (int j = 1; j <= lny; ++j) {
            for (int c = 0; c < kNcomp; ++c) u[idx(i, j, k, c)] = buf[at++];
          }
        }
      };
      auto packY = [&](int j, std::vector<double>& buf) {
        std::size_t at = 0;
        for (int k = 0; k < nz; ++k) {
          for (int i = 1; i <= lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) buf[at++] = u[idx(i, j, k, c)];
          }
        }
      };
      auto unpackY = [&](int j, const std::vector<double>& buf) {
        std::size_t at = 0;
        for (int k = 0; k < nz; ++k) {
          for (int i = 1; i <= lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) u[idx(i, j, k, c)] = buf[at++];
          }
        }
      };
      if (west >= 0) reqs.push_back(mpi.irecvT(wbuf_in.data(), face_x_count, west, kTagFaceW));
      if (east >= 0) reqs.push_back(mpi.irecvT(ebuf_in.data(), face_x_count, east, kTagFaceW));
      if (north >= 0) reqs.push_back(mpi.irecvT(nbuf_in.data(), face_y_count, north, kTagFaceN));
      if (south >= 0) reqs.push_back(mpi.irecvT(sbuf_in.data(), face_y_count, south, kTagFaceN));
      if (west >= 0) {
        packX(1, wbuf_out);
        reqs.push_back(mpi.isendT(wbuf_out.data(), face_x_count, west, kTagFaceW));
      }
      if (east >= 0) {
        packX(lnx, ebuf_out);
        reqs.push_back(mpi.isendT(ebuf_out.data(), face_x_count, east, kTagFaceW));
      }
      if (north >= 0) {
        packY(1, nbuf_out);
        reqs.push_back(mpi.isendT(nbuf_out.data(), face_y_count, north, kTagFaceN));
      }
      if (south >= 0) {
        packY(lny, sbuf_out);
        reqs.push_back(mpi.isendT(sbuf_out.data(), face_y_count, south, kTagFaceN));
      }
      mpi.compute(cost.flops(4LL * (face_x_count + face_y_count)));
      mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
      if (west >= 0) unpackX(0, wbuf_in);
      if (east >= 0) unpackX(lnx + 1, ebuf_in);
      if (north >= 0) unpackY(0, nbuf_in);
      if (south >= 0) unpackY(lny + 1, sbuf_in);
      mpi.compute(cost.flops(2LL * (face_x_count + face_y_count)));
    };

    // Residual of -Laplace(u) = f (Dirichlet-0 outside the global domain);
    // ghosts must be current.
    auto residualNorm = [&] {
      double local = 0;
      for (int k = 0; k < nz; ++k) {
        for (int j = 1; j <= lny; ++j) {
          for (int i = 1; i <= lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              const double below = k > 0 ? u[idx(i, j, k - 1, c)] : 0.0;
              const double above = k < nz - 1 ? u[idx(i, j, k + 1, c)] : 0.0;
              const double r = f[idx(i, j, k, c)] -
                               (6.0 * u[idx(i, j, k, c)] -
                                u[idx(i - 1, j, k, c)] -
                                u[idx(i + 1, j, k, c)] -
                                u[idx(i, j - 1, k, c)] -
                                u[idx(i, j + 1, k, c)] - below - above);
              local += r * r;
            }
          }
        }
      }
      mpi.compute(cost.flops(12LL * lnx * lny * nz * kNcomp));
      double global = 0;
      mpi.allreduce(&local, &global, 1, mpi::Op::Sum);
      return std::sqrt(global);
    };

    // One pipelined Gauss-Seidel sweep over k-planes.  forward=true walks
    // i,j,k ascending using updated west/north/below values (received from
    // the west/north neighbors plane by plane); backward reverses.
    const int col_count = lny * kNcomp;
    const int row_count = lnx * kNcomp;
    std::vector<double> col_in(static_cast<std::size_t>(col_count)),
        col_out(static_cast<std::size_t>(col_count)),
        row_in(static_cast<std::size_t>(row_count)),
        row_out(static_cast<std::size_t>(row_count));
    auto sweep = [&](bool forward) {
      const Rank up_x = forward ? west : east;    // upstream in x
      const Rank dn_x = forward ? east : west;    // downstream
      const Rank up_y = forward ? north : south;
      const Rank dn_y = forward ? south : north;
      const int ctag = forward ? kTagSweepCol : kTagBackCol;
      const int rtag = forward ? kTagSweepRow : kTagBackRow;
      for (int kk = 0; kk < nz; ++kk) {
        const int k = forward ? kk : nz - 1 - kk;
        // Receive the upstream boundary for this plane (the tiny pipelined
        // messages NAS LU is famous for).
        if (up_x >= 0) {
          mpi.recvT(col_in.data(), col_count, up_x, ctag);
          const int gi = forward ? 0 : lnx + 1;
          std::size_t at = 0;
          for (int j = 1; j <= lny; ++j) {
            for (int c = 0; c < kNcomp; ++c) {
              u[idx(gi, j, k, c)] = col_in[at++];
            }
          }
        }
        if (up_y >= 0) {
          mpi.recvT(row_in.data(), row_count, up_y, rtag);
          const int gj = forward ? 0 : lny + 1;
          std::size_t at = 0;
          for (int i = 1; i <= lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              u[idx(i, gj, k, c)] = row_in[at++];
            }
          }
        }
        // Relax the plane.
        for (int jj = 1; jj <= lny; ++jj) {
          const int j = forward ? jj : lny + 1 - jj;
          for (int ii = 1; ii <= lnx; ++ii) {
            const int i = forward ? ii : lnx + 1 - ii;
            for (int c = 0; c < kNcomp; ++c) {
              const double below = k > 0 ? u[idx(i, j, k - 1, c)] : 0.0;
              const double above = k < nz - 1 ? u[idx(i, j, k + 1, c)] : 0.0;
              u[idx(i, j, k, c)] =
                  (f[idx(i, j, k, c)] + u[idx(i - 1, j, k, c)] +
                   u[idx(i + 1, j, k, c)] + u[idx(i, j - 1, k, c)] +
                   u[idx(i, j + 1, k, c)] + below + above) /
                  6.0;
            }
          }
        }
        mpi.compute(cost.flops(9LL * lnx * lny * kNcomp));
        // Forward our downstream boundary for this plane.
        if (dn_x >= 0) {
          const int gi = forward ? lnx : 1;
          std::size_t at = 0;
          for (int j = 1; j <= lny; ++j) {
            for (int c = 0; c < kNcomp; ++c) {
              col_out[at++] = u[idx(gi, j, k, c)];
            }
          }
          mpi.sendT(col_out.data(), col_count, dn_x, ctag);
        }
        if (dn_y >= 0) {
          const int gj = forward ? lny : 1;
          std::size_t at = 0;
          for (int i = 1; i <= lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              row_out[at++] = u[idx(i, gj, k, c)];
            }
          }
          mpi.sendT(row_out.data(), row_count, dn_y, rtag);
        }
      }
    };

    exchangeFaces();
    const double res0 = residualNorm();
    double res = res0;
    double res_prev = res0;
    for (int it = 0; it < niter; ++it) {
      sweep(/*forward=*/true);
      sweep(/*forward=*/false);
      exchangeFaces();
      res = residualNorm();
      if (me == 0) {
        if (res > res_prev * (1.0 + 1e-9)) verified = false;
        res_prev = res;
      }
    }
    if (me == 0) {
      residual_out = res;
      if (!(res < res0 * 0.9) || !std::isfinite(res)) verified = false;
    }
  });

  NasResult out;
  out.checksum = residual_out;
  out.verified = verified;
  out.time = machine.finishTime();
  out.reports = machine.reports();
  out.diagnostics = machine.diagnostics();
  out.trace = machine.traceCollector();
  return out;
}

}  // namespace ovp::nas
