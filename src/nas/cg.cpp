#include "nas/cg.hpp"

#include <cmath>
#include <vector>

#include "nas/class_tables.hpp"

namespace ovp::nas {

namespace {

/// Symmetric positive-definite banded test matrix: off-diagonals at
/// +-band1, +-band2 with smooth values, diagonal strictly dominant.
/// Deterministic and identical regardless of the process count.
struct SpdBanded {
  int n, b1, b2;
  [[nodiscard]] double off(int i, int j) const {
    const int lo = i < j ? i : j;
    return -(0.3 + 0.7 * std::fabs(std::sin(0.37 * lo)));
  }
  [[nodiscard]] double diag(int i) const {
    double s = 4.0;
    if (i - b1 >= 0) s += std::fabs(off(i - b1, i));
    if (i + b1 < n) s += std::fabs(off(i, i + b1));
    if (i - b2 >= 0) s += std::fabs(off(i - b2, i));
    if (i + b2 < n) s += std::fabs(off(i, i + b2));
    return s + 1.0;
  }
};

using tables::kCgTagSeg;

}  // namespace

NasResult runCg(const NasParams& params) {
  const tables::CgSizes sz = tables::cgSizes(params.cls);
  const int niter = params.iterations > 0 ? params.iterations : sz.niter;
  mpi::Machine machine(makeJobConfig(params));
  const BlockDist dist = blockDistribute(sz.n, params.nranks);
  const SpdBanded A{sz.n, sz.band1, sz.band2};

  double zeta_out = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const int P = mpi.size();
    const Rank me = mpi.rank();
    const int my0 = dist.start[static_cast<std::size_t>(me)];
    const int myn = dist.size[static_cast<std::size_t>(me)];
    const CostModel& cost = params.cost;

    // Full-length work vectors (segments are exchanged; owning block is
    // authoritative).
    std::vector<double> x(static_cast<std::size_t>(sz.n), 1.0);
    std::vector<double> p_full(static_cast<std::size_t>(sz.n), 0.0);
    std::vector<double> z(static_cast<std::size_t>(myn), 0.0);
    std::vector<double> r(static_cast<std::size_t>(myn), 0.0);
    std::vector<double> p(static_cast<std::size_t>(myn), 0.0);
    std::vector<double> q(static_cast<std::size_t>(myn), 0.0);

    auto dot = [&](const std::vector<double>& a,
                   const std::vector<double>& b) {
      double local = 0;
      for (int i = 0; i < myn; ++i) {
        local += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
      }
      mpi.compute(cost.flops(2 * myn));
      double global = 0;
      mpi.allreduce(&local, &global, 1, mpi::Op::Sum);
      return global;
    };

    // w = A * p  (p owned segments gathered into p_full first).  The
    // remote-segment exchange is posted, the *local* block contribution is
    // computed, then the waits complete — CG's natural overlap window.
    auto matvec = [&](const std::vector<double>& pin, std::vector<double>& w) {
      std::vector<mpi::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(2 * (P - 1)));
      for (int d = 1; d < P; ++d) {
        const Rank peer = static_cast<Rank>((me + d) % P);
        reqs.push_back(mpi.irecvT(
            p_full.data() + dist.start[static_cast<std::size_t>(peer)],
            dist.size[static_cast<std::size_t>(peer)], peer, kCgTagSeg));
      }
      for (int d = 1; d < P; ++d) {
        const Rank peer = static_cast<Rank>((me + d) % P);
        reqs.push_back(mpi.isendT(pin.data(), myn, peer, kCgTagSeg));
      }
      // Local (diagonal-block) part while segments are in flight.
      std::copy(pin.begin(), pin.end(),
                p_full.begin() + my0);
      for (int i = 0; i < myn; ++i) {
        const int gi = my0 + i;
        double acc = A.diag(gi) * pin[static_cast<std::size_t>(i)];
        for (const int d : {A.b1, A.b2}) {
          const int jm = gi - d, jp = gi + d;
          if (jm >= my0 && jm < my0 + myn) {
            acc += A.off(jm, gi) * pin[static_cast<std::size_t>(jm - my0)];
          }
          if (jp >= my0 && jp < my0 + myn) {
            acc += A.off(gi, jp) * pin[static_cast<std::size_t>(jp - my0)];
          }
        }
        w[static_cast<std::size_t>(i)] = acc;
      }
      mpi.compute(cost.flops(10 * myn));
      mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
      // Off-block contributions using the now-arrived remote segments.
      for (int i = 0; i < myn; ++i) {
        const int gi = my0 + i;
        double acc = 0;
        for (const int d : {A.b1, A.b2}) {
          const int jm = gi - d, jp = gi + d;
          if (jm >= 0 && (jm < my0 || jm >= my0 + myn)) {
            acc += A.off(jm, gi) * p_full[static_cast<std::size_t>(jm)];
          }
          if (jp < sz.n && (jp < my0 || jp >= my0 + myn)) {
            acc += A.off(gi, jp) * p_full[static_cast<std::size_t>(jp)];
          }
        }
        w[static_cast<std::size_t>(i)] += acc;
      }
      mpi.compute(cost.flops(8 * myn));
    };

    double zeta = 0.0;
    double conv_ratio = 0.0;
    for (int it = 0; it < niter; ++it) {
      // CG solve A z = x.
      for (int i = 0; i < myn; ++i) {
        z[static_cast<std::size_t>(i)] = 0.0;
        r[static_cast<std::size_t>(i)] =
            x[static_cast<std::size_t>(my0 + i)];
        p[static_cast<std::size_t>(i)] = r[static_cast<std::size_t>(i)];
      }
      double rho = dot(r, r);
      const double rho0 = rho;
      for (int cg = 0; cg < sz.cgit; ++cg) {
        matvec(p, q);
        const double alpha = rho / dot(p, q);
        for (int i = 0; i < myn; ++i) {
          z[static_cast<std::size_t>(i)] +=
              alpha * p[static_cast<std::size_t>(i)];
          r[static_cast<std::size_t>(i)] -=
              alpha * q[static_cast<std::size_t>(i)];
        }
        mpi.compute(cost.flops(4 * myn));
        const double rho_new = dot(r, r);
        const double beta = rho_new / rho;
        rho = rho_new;
        for (int i = 0; i < myn; ++i) {
          p[static_cast<std::size_t>(i)] =
              r[static_cast<std::size_t>(i)] +
              beta * p[static_cast<std::size_t>(i)];
        }
        mpi.compute(cost.flops(2 * myn));
      }
      conv_ratio = rho / rho0;

      // zeta = shift + 1 / (x . z); then x = z / ||z||.
      double xz_local = 0, zz_local = 0;
      for (int i = 0; i < myn; ++i) {
        xz_local += x[static_cast<std::size_t>(my0 + i)] *
                    z[static_cast<std::size_t>(i)];
        zz_local += z[static_cast<std::size_t>(i)] *
                    z[static_cast<std::size_t>(i)];
      }
      mpi.compute(cost.flops(4 * myn));
      double sums_local[2] = {xz_local, zz_local};
      double sums[2] = {0, 0};
      mpi.allreduce(sums_local, sums, 2, mpi::Op::Sum);
      zeta = 10.0 + 1.0 / sums[0];
      const double znorm = 1.0 / std::sqrt(sums[1]);
      // Scatter normalized z back into the full x (via allgather of owned
      // segments, as the power iteration needs all of x next round).
      std::vector<double> zn(static_cast<std::size_t>(myn));
      for (int i = 0; i < myn; ++i) {
        zn[static_cast<std::size_t>(i)] =
            z[static_cast<std::size_t>(i)] * znorm;
      }
      mpi.compute(cost.flops(myn));
      // Equal-sized blocks are required by our allgather; fall back to
      // point-to-point for uneven blocks.
      if (sz.n % P == 0) {
        mpi.allgather(zn.data(), x.data(),
                      static_cast<Bytes>(myn) *
                          static_cast<Bytes>(sizeof(double)));
      } else {
        std::vector<mpi::Request> reqs;
        for (int d = 1; d < P; ++d) {
          const Rank peer = static_cast<Rank>((me + d) % P);
          reqs.push_back(mpi.irecvT(
              x.data() + dist.start[static_cast<std::size_t>(peer)],
              dist.size[static_cast<std::size_t>(peer)], peer, kCgTagSeg + 1));
        }
        for (int d = 1; d < P; ++d) {
          const Rank peer = static_cast<Rank>((me + d) % P);
          reqs.push_back(mpi.isendT(zn.data(), myn, peer, kCgTagSeg + 1));
        }
        std::copy(zn.begin(), zn.end(), x.begin() + my0);
        mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
      }
    }

    if (me == 0) {
      zeta_out = zeta;
      // Diagonally dominant SPD: CG must contract the residual hard.
      verified = std::isfinite(zeta) && conv_ratio < 1e-6;
    }
  });

  return nasResult(machine, zeta_out, verified);
}

}  // namespace ovp::nas
