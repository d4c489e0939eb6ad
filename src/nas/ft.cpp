#include "nas/ft.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "nas/class_tables.hpp"
#include "nas/fft.hpp"
#include "util/rng.hpp"

namespace ovp::nas {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kAlpha = 1e-6;

}  // namespace

NasResult runFt(const NasParams& params) {
  const tables::FtSizes sz = tables::ftSizes(params.cls);
  const int niter = params.iterations > 0 ? params.iterations : sz.niter;
  const int P = params.nranks;
  if (sz.nx % P != 0 || sz.nz % P != 0) {
    return cannotRun("the rank count does not divide nx=" +
                     std::to_string(sz.nx) + " and nz=" +
                     std::to_string(sz.nz));
  }
  mpi::Machine machine(makeJobConfig(params));

  double checksum_out = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const Rank me = mpi.rank();
    const CostModel& cost = params.cost;
    const int nx = sz.nx, ny = sz.ny, nz = sz.nz;
    const int lnz = nz / P;  // local z planes (z-slab layout)
    const int lnx = nx / P;  // local x pencils (x-slab layout)
    const int z0 = static_cast<int>(me) * lnz;
    const int x0 = static_cast<int>(me) * lnx;
    const std::int64_t npts_local = static_cast<std::int64_t>(lnz) * ny * nx;

    // z-slab layout: a[(z*ny + y)*nx + x]; x-slab: b[(xl*ny + y)*nz + z].
    std::vector<Complex> u(static_cast<std::size_t>(npts_local));
    std::vector<Complex> spec(static_cast<std::size_t>(lnx) * ny * nz);
    std::vector<Complex> work(static_cast<std::size_t>(lnx) * ny * nz);
    std::vector<Complex> slab(static_cast<std::size_t>(npts_local));
    std::vector<Complex> sendbuf(static_cast<std::size_t>(npts_local));
    std::vector<Complex> recvbuf(static_cast<std::size_t>(npts_local));

    // Deterministic initial condition (global function of coordinates so
    // any rank count computes the same field).
    double energy_local = 0;
    for (int zl = 0; zl < lnz; ++zl) {
      for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
          const int z = z0 + zl;
          const double re = std::sin(0.17 * x + 0.29 * y + 0.41 * z);
          const double im = std::cos(0.11 * x - 0.23 * y + 0.31 * z);
          u[static_cast<std::size_t>((zl * ny + y) * nx + x)] = {re, im};
          energy_local += re * re + im * im;
        }
      }
    }
    mpi.compute(cost.flops(12 * npts_local));

    const Bytes block_bytes = static_cast<Bytes>(lnz) * ny * lnx *
                              static_cast<Bytes>(sizeof(Complex));

    // ---- transpose: z-slabs -> x-slabs (the per-step Alltoall) ----
    auto transposeToX = [&](const std::vector<Complex>& a,
                            std::vector<Complex>& b) {
      for (int q = 0; q < P; ++q) {
        Complex* out = sendbuf.data() +
                       static_cast<std::size_t>(q) * lnz * ny * lnx;
        for (int zl = 0; zl < lnz; ++zl) {
          for (int y = 0; y < ny; ++y) {
            const Complex* row =
                a.data() + static_cast<std::size_t>((zl * ny + y) * nx) +
                static_cast<std::size_t>(q) * lnx;
            for (int xl = 0; xl < lnx; ++xl) {
              out[(static_cast<std::size_t>(zl) * ny + y) * lnx + xl] =
                  row[xl];
            }
          }
        }
      }
      mpi.compute(cost.flops(2 * npts_local));  // pack
      mpi.alltoall(sendbuf.data(), recvbuf.data(), block_bytes);
      for (int s = 0; s < P; ++s) {
        const Complex* in = recvbuf.data() +
                            static_cast<std::size_t>(s) * lnz * ny * lnx;
        for (int zl = 0; zl < lnz; ++zl) {
          const int z = s * lnz + zl;
          for (int y = 0; y < ny; ++y) {
            for (int xl = 0; xl < lnx; ++xl) {
              b[(static_cast<std::size_t>(xl) * ny + y) * nz + z] =
                  in[(static_cast<std::size_t>(zl) * ny + y) * lnx + xl];
            }
          }
        }
      }
      mpi.compute(cost.flops(2 * npts_local));  // unpack
    };

    auto transposeToZ = [&](const std::vector<Complex>& b,
                            std::vector<Complex>& a) {
      for (int q = 0; q < P; ++q) {
        Complex* out = sendbuf.data() +
                       static_cast<std::size_t>(q) * lnz * ny * lnx;
        for (int xl = 0; xl < lnx; ++xl) {
          for (int y = 0; y < ny; ++y) {
            const Complex* col =
                b.data() + (static_cast<std::size_t>(xl) * ny + y) * nz +
                static_cast<std::size_t>(q) * lnz;
            for (int zl = 0; zl < lnz; ++zl) {
              out[(static_cast<std::size_t>(xl) * ny + y) * lnz + zl] =
                  col[zl];
            }
          }
        }
      }
      mpi.compute(cost.flops(2 * npts_local));
      mpi.alltoall(sendbuf.data(), recvbuf.data(), block_bytes);
      for (int s = 0; s < P; ++s) {
        const Complex* in = recvbuf.data() +
                            static_cast<std::size_t>(s) * lnz * ny * lnx;
        for (int xl = 0; xl < lnx; ++xl) {
          const int x = s * lnx + xl;
          for (int y = 0; y < ny; ++y) {
            for (int zl = 0; zl < lnz; ++zl) {
              a[static_cast<std::size_t>((zl * ny + y) * nx + x)] =
                  in[(static_cast<std::size_t>(xl) * ny + y) * lnz + zl];
            }
          }
        }
      }
      mpi.compute(cost.flops(2 * npts_local));
    };

    // ---- forward 3-D FFT: u (z-slabs) -> spec (x-slabs) ----
    std::copy(u.begin(), u.end(), slab.begin());
    for (int zl = 0; zl < lnz; ++zl) {
      for (int y = 0; y < ny; ++y) {
        fft(slab.data() + static_cast<std::size_t>((zl * ny + y) * nx), nx,
            -1);
      }
    }
    mpi.compute(cost.flops(static_cast<std::int64_t>(lnz) * ny * fftFlops(nx)));
    for (int zl = 0; zl < lnz; ++zl) {
      for (int x = 0; x < nx; ++x) {
        fftStrided(slab.data() + static_cast<std::size_t>(zl * ny) * nx + x,
                   ny, nx, -1);
      }
    }
    mpi.compute(cost.flops(static_cast<std::int64_t>(lnz) * nx * fftFlops(ny)));
    transposeToX(slab, spec);
    for (int xl = 0; xl < lnx; ++xl) {
      for (int y = 0; y < ny; ++y) {
        fft(spec.data() + (static_cast<std::size_t>(xl) * ny + y) * nz, nz,
            -1);
      }
    }
    mpi.compute(cost.flops(static_cast<std::int64_t>(lnx) * ny * fftFlops(nz)));

    // Parseval check: sum |U|^2 == N * sum |u|^2.
    double spec_energy_local = 0;
    for (const Complex& c : spec) spec_energy_local += std::norm(c);
    mpi.compute(cost.flops(3 * npts_local));
    double energies_local[2] = {energy_local, spec_energy_local};
    double energies[2] = {0, 0};
    mpi.allreduce(energies_local, energies, 2, mpi::Op::Sum);
    const double npts_total = static_cast<double>(nx) * ny * nz;
    if (me == 0) {
      const double rel =
          std::fabs(energies[1] - npts_total * energies[0]) /
          (npts_total * energies[0]);
      if (rel > 1e-9) verified = false;
    }

    // ---- time stepping ----
    auto freq2 = [](int k, int n) {
      const int kk = k > n / 2 ? k - n : k;
      return static_cast<double>(kk) * kk;
    };
    Complex checksum(0, 0);
    for (int step = 1; step <= niter; ++step) {
      // Evolve the spectrum (local).
      for (int xl = 0; xl < lnx; ++xl) {
        const double fx = freq2(x0 + xl, nx);
        for (int y = 0; y < ny; ++y) {
          const double fy = freq2(y, ny);
          Complex* line =
              work.data() + (static_cast<std::size_t>(xl) * ny + y) * nz;
          const Complex* sline =
              spec.data() + (static_cast<std::size_t>(xl) * ny + y) * nz;
          for (int z = 0; z < nz; ++z) {
            const double fz = freq2(z, nz);
            const double factor = std::exp(-4.0 * kAlpha * kPi * kPi *
                                           (fx + fy + fz) * step);
            line[z] = sline[z] * factor;
          }
        }
      }
      mpi.compute(cost.flops(12 * npts_local));

      // Inverse 3-D FFT back to physical z-slabs.
      for (int xl = 0; xl < lnx; ++xl) {
        for (int y = 0; y < ny; ++y) {
          fft(work.data() + (static_cast<std::size_t>(xl) * ny + y) * nz, nz,
              +1);
        }
      }
      mpi.compute(
          cost.flops(static_cast<std::int64_t>(lnx) * ny * fftFlops(nz)));
      transposeToZ(work, slab);
      for (int zl = 0; zl < lnz; ++zl) {
        for (int x = 0; x < nx; ++x) {
          fftStrided(slab.data() + static_cast<std::size_t>(zl * ny) * nx + x,
                     ny, nx, +1);
        }
      }
      mpi.compute(
          cost.flops(static_cast<std::int64_t>(lnz) * nx * fftFlops(ny)));
      const double inv_n = 1.0 / npts_total;
      for (int zl = 0; zl < lnz; ++zl) {
        for (int y = 0; y < ny; ++y) {
          Complex* row =
              slab.data() + static_cast<std::size_t>((zl * ny + y) * nx);
          fft(row, nx, +1);
          for (int x = 0; x < nx; ++x) row[x] *= inv_n;
        }
      }
      mpi.compute(
          cost.flops(static_cast<std::int64_t>(lnz) * ny *
                     (fftFlops(nx) + 2 * nx)));

      // NPB-style sampled checksum, reduced to rank 0.
      double cs_local[2] = {0, 0};
      for (int j = 1; j <= 1024; ++j) {
        const int x = (j * 5) % nx;
        const int y = (3 * j) % ny;
        const int z = j % nz;
        if (z >= z0 && z < z0 + lnz) {
          const Complex v =
              slab[static_cast<std::size_t>(((z - z0) * ny + y) * nx + x)];
          cs_local[0] += v.real();
          cs_local[1] += v.imag();
        }
      }
      mpi.compute(cost.flops(4 * 1024 / P));
      double cs[2] = {0, 0};
      mpi.reduce(cs_local, cs, 2, mpi::Op::Sum, 0);
      mpi.bcast(cs, 2 * sizeof(double), 0);
      checksum = {cs[0], cs[1]};
      if (me == 0 && !(std::isfinite(cs[0]) && std::isfinite(cs[1]))) {
        verified = false;
      }
    }
    if (me == 0) checksum_out = checksum.real();
  });

  return nasResult(machine, checksum_out, verified);
}

}  // namespace ovp::nas
