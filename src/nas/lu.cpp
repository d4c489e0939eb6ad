#include "nas/lu.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "nas/block2d.hpp"

namespace ovp::nas {

namespace {

using tables::kNcomp;
using namespace tables::lu;  // NOLINT(google-build-using-namespace)

}  // namespace

NasResult runLu(const NasParams& params) {
  const tables::GridSizes sz = sizes(params.cls);
  const int niter = params.iterations > 0 ? params.iterations : sz.niter;
  const Grid2D pg = factor2d(params.nranks);
  if (std::string why = Block2D::splitError(sz, pg, kFaces); !why.empty()) {
    return cannotRun(std::move(why));
  }
  mpi::Machine machine(makeJobConfig(params));

  double residual_out = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const Rank me = mpi.rank();
    const Block2D blk(sz, pg, kFaces, me);
    const int lnx = blk.lnx, lny = blk.lny, nz = blk.nz;
    const CostModel& cost = params.cost;

    std::vector<double> u(blk.size(), 0.0);
    std::vector<double> f(u.size(), 0.0);
    // Smooth, globally defined source term.
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < lny; ++j) {
        for (int i = 0; i < lnx; ++i) {
          const int gxi = blk.x0 + i, gyj = blk.y0 + j;
          for (int c = 0; c < kNcomp; ++c) {
            f[blk.at(i, j, k, c)] =
                std::sin(0.21 * gxi + 0.1 * c) * std::cos(0.17 * gyj) *
                std::sin(0.13 * (k + 1));
          }
        }
      }
    }
    mpi.compute(cost.flops(6LL * lnx * lny * nz * kNcomp));

    // Ghost-face exchange (NPB LU's exchange_3): full x/y faces of u.
    FaceExchange faces(blk);

    // Residual of -Laplace(u) = f (Dirichlet-0 outside the global domain);
    // ghosts must be current.
    auto residualNorm = [&] {
      double local = 0;
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              const double below = k > 0 ? u[blk.at(i, j, k - 1, c)] : 0.0;
              const double above = k < nz - 1 ? u[blk.at(i, j, k + 1, c)] : 0.0;
              const double r = f[blk.at(i, j, k, c)] -
                               (6.0 * u[blk.at(i, j, k, c)] -
                                u[blk.at(i - 1, j, k, c)] -
                                u[blk.at(i + 1, j, k, c)] -
                                u[blk.at(i, j - 1, k, c)] -
                                u[blk.at(i, j + 1, k, c)] - below - above);
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
      const Rank up_x = forward ? blk.west : blk.east;  // upstream in x
      const Rank dn_x = forward ? blk.east : blk.west;  // downstream
      const Rank up_y = forward ? blk.north : blk.south;
      const Rank dn_y = forward ? blk.south : blk.north;
      const int ctag = forward ? kTagSweepCol : kTagBackCol;
      const int rtag = forward ? kTagSweepRow : kTagBackRow;
      for (int kk = 0; kk < nz; ++kk) {
        const int k = forward ? kk : nz - 1 - kk;
        // Receive the upstream boundary for this plane (the tiny pipelined
        // messages NAS LU is famous for).
        if (up_x >= 0) {
          mpi.recvT(col_in.data(), col_count, up_x, ctag);
          const int gi = forward ? -1 : lnx;
          std::size_t at = 0;
          for (int j = 0; j < lny; ++j) {
            for (int c = 0; c < kNcomp; ++c) {
              u[blk.at(gi, j, k, c)] = col_in[at++];
            }
          }
        }
        if (up_y >= 0) {
          mpi.recvT(row_in.data(), row_count, up_y, rtag);
          const int gj = forward ? -1 : lny;
          std::size_t at = 0;
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              u[blk.at(i, gj, k, c)] = row_in[at++];
            }
          }
        }
        // Relax the plane.
        for (int jj = 0; jj < lny; ++jj) {
          const int j = forward ? jj : lny - 1 - jj;
          for (int ii = 0; ii < lnx; ++ii) {
            const int i = forward ? ii : lnx - 1 - ii;
            for (int c = 0; c < kNcomp; ++c) {
              const double below = k > 0 ? u[blk.at(i, j, k - 1, c)] : 0.0;
              const double above = k < nz - 1 ? u[blk.at(i, j, k + 1, c)] : 0.0;
              u[blk.at(i, j, k, c)] =
                  (f[blk.at(i, j, k, c)] + u[blk.at(i - 1, j, k, c)] +
                   u[blk.at(i + 1, j, k, c)] + u[blk.at(i, j - 1, k, c)] +
                   u[blk.at(i, j + 1, k, c)] + below + above) /
                  6.0;
            }
          }
        }
        mpi.compute(cost.flops(9LL * lnx * lny * kNcomp));
        // Forward our downstream boundary for this plane.
        if (dn_x >= 0) {
          const int gi = forward ? lnx - 1 : 0;
          std::size_t at = 0;
          for (int j = 0; j < lny; ++j) {
            for (int c = 0; c < kNcomp; ++c) {
              col_out[at++] = u[blk.at(gi, j, k, c)];
            }
          }
          mpi.sendT(col_out.data(), col_count, dn_x, ctag);
        }
        if (dn_y >= 0) {
          const int gj = forward ? lny - 1 : 0;
          std::size_t at = 0;
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              row_out[at++] = u[blk.at(i, gj, k, c)];
            }
          }
          mpi.sendT(row_out.data(), row_count, dn_y, rtag);
        }
      }
    };

    faces.run(mpi, u, cost);
    const double res0 = residualNorm();
    double res = res0;
    double res_prev = res0;
    for (int it = 0; it < niter; ++it) {
      sweep(/*forward=*/true);
      sweep(/*forward=*/false);
      faces.run(mpi, u, cost);
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

  return nasResult(machine, residual_out, verified);
}

}  // namespace ovp::nas
