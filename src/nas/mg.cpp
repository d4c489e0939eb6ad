#include "nas/mg.hpp"

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "armci/armci.hpp"
#include "nas/class_tables.hpp"

namespace ovp::nas {

namespace {

using tables::kMgCoarseSweeps;
using tables::kMgTagExch;

constexpr double kOmega = 2.0 / 3.0;  // damped-Jacobi weight

/// One level of the local multigrid hierarchy (interior 1..ln, ghosts at 0
/// and ln+1, Dirichlet zero outside the global domain).
struct Level {
  int n = 0;  // global edge length at this level
  int lnx = 0, lny = 0, lnz = 0;
  std::vector<double> u, f, r, scratch;

  [[nodiscard]] std::size_t idx(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * (lny + 2) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(lnx + 2) +
           static_cast<std::size_t>(i);
  }
  void alloc() {
    const std::size_t total = static_cast<std::size_t>(lnx + 2) * (lny + 2) *
                              (lnz + 2);
    u.assign(total, 0.0);
    f.assign(total, 0.0);
    r.assign(total, 0.0);
    scratch.assign(total, 0.0);
  }
  [[nodiscard]] std::int64_t points() const {
    return static_cast<std::int64_t>(lnx) * lny * lnz;
  }
};

// Face geometry: dir 0/1 = -x/+x, 2/3 = -y/+y, 4/5 = -z/+z.
int faceCount(const Level& L, int dir) {
  switch (dir / 2) {
    case 0: return L.lny * L.lnz;
    case 1: return L.lnx * L.lnz;
    default: return L.lnx * L.lny;
  }
}

// Ghost-inclusive variant (NPB comm3 style): when the axes are exchanged
// strictly in x, y, z order, each later axis carries the earlier axes'
// ghost layers along, so edge and corner ghosts end up correct — which the
// trilinear prolongation needs.
int faceCountIncl(const Level& L, int dir) {
  switch (dir / 2) {
    case 0: return L.lny * L.lnz;
    case 1: return (L.lnx + 2) * L.lnz;
    default: return (L.lnx + 2) * (L.lny + 2);
  }
}

void packFaceIncl(const Level& L, const std::vector<double>& field, int dir,
                  std::vector<double>& buf) {
  std::size_t at = 0;
  const int axis = dir / 2;
  const bool high = dir & 1;
  if (axis == 0) {
    const int i = high ? L.lnx : 1;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int j = 1; j <= L.lny; ++j) buf[at++] = field[L.idx(i, j, k)];
    }
  } else if (axis == 1) {
    const int j = high ? L.lny : 1;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int i = 0; i <= L.lnx + 1; ++i) buf[at++] = field[L.idx(i, j, k)];
    }
  } else {
    const int k = high ? L.lnz : 1;
    for (int j = 0; j <= L.lny + 1; ++j) {
      for (int i = 0; i <= L.lnx + 1; ++i) buf[at++] = field[L.idx(i, j, k)];
    }
  }
}

void unpackGhostIncl(Level& L, std::vector<double>& field, int dir,
                     const std::vector<double>& buf) {
  std::size_t at = 0;
  const int axis = dir / 2;
  const bool high = dir & 1;
  if (axis == 0) {
    const int i = high ? L.lnx + 1 : 0;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int j = 1; j <= L.lny; ++j) field[L.idx(i, j, k)] = buf[at++];
    }
  } else if (axis == 1) {
    const int j = high ? L.lny + 1 : 0;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int i = 0; i <= L.lnx + 1; ++i) field[L.idx(i, j, k)] = buf[at++];
    }
  } else {
    const int k = high ? L.lnz + 1 : 0;
    for (int j = 0; j <= L.lny + 1; ++j) {
      for (int i = 0; i <= L.lnx + 1; ++i) field[L.idx(i, j, k)] = buf[at++];
    }
  }
}

void packFace(const Level& L, const std::vector<double>& field, int dir,
              std::vector<double>& buf) {
  std::size_t at = 0;
  const int axis = dir / 2;
  const bool high = dir & 1;
  if (axis == 0) {
    const int i = high ? L.lnx : 1;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int j = 1; j <= L.lny; ++j) buf[at++] = field[L.idx(i, j, k)];
    }
  } else if (axis == 1) {
    const int j = high ? L.lny : 1;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int i = 1; i <= L.lnx; ++i) buf[at++] = field[L.idx(i, j, k)];
    }
  } else {
    const int k = high ? L.lnz : 1;
    for (int j = 1; j <= L.lny; ++j) {
      for (int i = 1; i <= L.lnx; ++i) buf[at++] = field[L.idx(i, j, k)];
    }
  }
}

void unpackGhost(Level& L, std::vector<double>& field, int dir,
                 const std::vector<double>& buf) {
  // dir names the side the data arrives FROM (so it fills that ghost).
  std::size_t at = 0;
  const int axis = dir / 2;
  const bool high = dir & 1;
  if (axis == 0) {
    const int i = high ? L.lnx + 1 : 0;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int j = 1; j <= L.lny; ++j) field[L.idx(i, j, k)] = buf[at++];
    }
  } else if (axis == 1) {
    const int j = high ? L.lny + 1 : 0;
    for (int k = 1; k <= L.lnz; ++k) {
      for (int i = 1; i <= L.lnx; ++i) field[L.idx(i, j, k)] = buf[at++];
    }
  } else {
    const int k = high ? L.lnz + 1 : 0;
    for (int j = 1; j <= L.lny; ++j) {
      for (int i = 1; i <= L.lnx; ++i) field[L.idx(i, j, k)] = buf[at++];
    }
  }
}

/// Damped-Jacobi update of the cell range [i0,i1]x[j0,j1]x[k0,k1] into
/// scratch (reads only u/f, so interior/boundary splitting is exact).
void jacobiRange(Level& L, int i0, int i1, int j0, int j1, int k0, int k1) {
  for (int k = k0; k <= k1; ++k) {
    for (int j = j0; j <= j1; ++j) {
      for (int i = i0; i <= i1; ++i) {
        const std::size_t p = L.idx(i, j, k);
        const double au = 6.0 * L.u[p] - L.u[L.idx(i - 1, j, k)] -
                          L.u[L.idx(i + 1, j, k)] - L.u[L.idx(i, j - 1, k)] -
                          L.u[L.idx(i, j + 1, k)] - L.u[L.idx(i, j, k - 1)] -
                          L.u[L.idx(i, j, k + 1)];
        L.scratch[p] = L.u[p] + kOmega / 6.0 * (L.f[p] - au);
      }
    }
  }
}

void jacobiBoundaryShell(Level& L) {
  const int X = L.lnx, Y = L.lny, Z = L.lnz;
  if (X < 3 || Y < 3 || Z < 3) {
    jacobiRange(L, 1, X, 1, Y, 1, Z);  // block too thin to split
    return;
  }
  jacobiRange(L, 1, X, 1, Y, 1, 1);
  jacobiRange(L, 1, X, 1, Y, Z, Z);
  jacobiRange(L, 1, X, 1, 1, 2, Z - 1);
  jacobiRange(L, 1, X, Y, Y, 2, Z - 1);
  jacobiRange(L, 1, 1, 2, Y - 1, 2, Z - 1);
  jacobiRange(L, X, X, 2, Y - 1, 2, Z - 1);
}

void commitJacobi(Level& L) {
  for (int k = 1; k <= L.lnz; ++k) {
    for (int j = 1; j <= L.lny; ++j) {
      for (int i = 1; i <= L.lnx; ++i) {
        const std::size_t p = L.idx(i, j, k);
        L.u[p] = L.scratch[p];
      }
    }
  }
}

void computeResidualRange(Level& L, int i0, int i1, int j0, int j1, int k0,
                          int k1) {
  for (int k = k0; k <= k1; ++k) {
    for (int j = j0; j <= j1; ++j) {
      for (int i = i0; i <= i1; ++i) {
        const std::size_t p = L.idx(i, j, k);
        const double au = 6.0 * L.u[p] - L.u[L.idx(i - 1, j, k)] -
                          L.u[L.idx(i + 1, j, k)] - L.u[L.idx(i, j - 1, k)] -
                          L.u[L.idx(i, j + 1, k)] - L.u[L.idx(i, j, k - 1)] -
                          L.u[L.idx(i, j, k + 1)];
        L.r[p] = L.f[p] - au;
      }
    }
  }
}

void computeResidualBoundary(Level& L) {
  const int X = L.lnx, Y = L.lny, Z = L.lnz;
  if (X < 3 || Y < 3 || Z < 3) {
    computeResidualRange(L, 1, X, 1, Y, 1, Z);
    return;
  }
  computeResidualRange(L, 1, X, 1, Y, 1, 1);
  computeResidualRange(L, 1, X, 1, Y, Z, Z);
  computeResidualRange(L, 1, X, 1, 1, 2, Z - 1);
  computeResidualRange(L, 1, X, Y, Y, 2, Z - 1);
  computeResidualRange(L, 1, 1, 2, Y - 1, 2, Z - 1);
  computeResidualRange(L, X, X, 2, Y - 1, 2, Z - 1);
}

/// Half-weighted restriction of fine.r into coarse.f over a coarse-cell
/// range (fine ghosts of r must be current for cells touching them — only
/// the high faces do, since coarse i maps to fine 2i and reads 2i +- 1).
void restrictResidualRange(const Level& fine, Level& coarse, int i0, int i1,
                           int j0, int j1, int k0, int k1) {
  for (int k = k0; k <= k1; ++k) {
    for (int j = j0; j <= j1; ++j) {
      for (int i = i0; i <= i1; ++i) {
        const int fi = 2 * i, fj = 2 * j, fk = 2 * k;
        const double center = fine.r[fine.idx(fi, fj, fk)];
        const double faces =
            fine.r[fine.idx(fi - 1, fj, fk)] +
            fine.r[fine.idx(fi + 1, fj, fk)] +
            fine.r[fine.idx(fi, fj - 1, fk)] +
            fine.r[fine.idx(fi, fj + 1, fk)] +
            fine.r[fine.idx(fi, fj, fk - 1)] +
            fine.r[fine.idx(fi, fj, fk + 1)];
        coarse.f[coarse.idx(i, j, k)] = 4.0 * (0.5 * center + faces / 12.0);
      }
    }
  }
}

/// Trilinear prolongation of coarse.u added into fine.u (coarse ghosts of u
/// must be current).
void prolongAdd(const Level& coarse, Level& fine) {
  for (int k = 1; k <= fine.lnz; ++k) {
    const int kc0 = k / 2, kc1 = (k + 1) / 2;
    const double wk = (k % 2 == 0) ? 1.0 : 0.5;
    for (int j = 1; j <= fine.lny; ++j) {
      const int jc0 = j / 2, jc1 = (j + 1) / 2;
      const double wj = (j % 2 == 0) ? 1.0 : 0.5;
      for (int i = 1; i <= fine.lnx; ++i) {
        const int ic0 = i / 2, ic1 = (i + 1) / 2;
        const double wi = (i % 2 == 0) ? 1.0 : 0.5;
        double v = 0.0;
        for (const int kc : {kc0, kc1}) {
          for (const int jc : {jc0, jc1}) {
            for (const int ic : {ic0, ic1}) {
              v += coarse.u[coarse.idx(ic, jc, kc)];
            }
          }
        }
        // The 8-combination loop visits each distinct coarse point
        // 2^(#even axes) times; dividing by 8 yields exactly the trilinear
        // weights (1 on even axes, 1/2-1/2 on odd axes).
        (void)wi;
        (void)wj;
        (void)wk;
        fine.u[fine.idx(i, j, k)] += v / 8.0;
      }
    }
  }
}

}  // namespace

NasResult runMg(const MgParams& params) {
  const tables::MgSizes sz = tables::mgSizes(params.cls);
  const int cycles = params.iterations > 0 ? params.iterations : sz.cycles;
  const int P = params.nranks;
  const Grid3D pg = factor3d(P);

  // Build the level geometry (shared by every rank).
  std::vector<std::array<int, 4>> geom;  // {n, lnx, lny, lnz}
  for (int n = sz.n;; n /= 2) {
    if (n % pg.px != 0 || n % pg.py != 0 || n % pg.pz != 0) break;
    const int lx = n / pg.px, ly = n / pg.py, lz = n / pg.pz;
    if (lx < 1 || ly < 1 || lz < 1) break;
    geom.push_back({n, lx, ly, lz});
    if (n / 2 < 4) break;
  }
  const int nlevels = static_cast<int>(geom.size());
  if (nlevels == 0) {
    return cannotRun("the " + std::to_string(sz.n) + "^3 grid is not " +
                     "divisible by the " + std::to_string(pg.px) + "x" +
                     std::to_string(pg.py) + "x" + std::to_string(pg.pz) +
                     " process grid");
  }

  // Shared inbox buffers: inbox[level][rank][dir].
  std::vector<std::vector<std::array<std::vector<double>, 6>>> inbox(
      static_cast<std::size_t>(nlevels));
  for (int l = 0; l < nlevels; ++l) {
    inbox[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(P));
    Level tmp;
    tmp.lnx = geom[static_cast<std::size_t>(l)][1];
    tmp.lny = geom[static_cast<std::size_t>(l)][2];
    tmp.lnz = geom[static_cast<std::size_t>(l)][3];
    for (int rk = 0; rk < P; ++rk) {
      for (int d = 0; d < 6; ++d) {
        inbox[static_cast<std::size_t>(l)][static_cast<std::size_t>(rk)]
             [static_cast<std::size_t>(d)]
                 .assign(static_cast<std::size_t>(faceCountIncl(tmp, d)), 0.0);
      }
    }
  }

  double res_out = 0.0;
  bool verified = true;

  // The per-rank program, parameterized over the communication adapter.
  // `begin(l, field)` starts the 6-face exchange; `end(l, field)` completes
  // it and fills the ghosts.
  auto program = [&](Rank me, const CostModel& cost,
                     const std::function<void(DurationNs)>& charge,
                     const std::function<void(int, std::vector<double>&)>& beginX,
                     const std::function<void(int, std::vector<double>&)>& endX,
                     const std::function<void(int, std::vector<double>&)>& seqX,
                     const std::function<double(double)>& sum) {
    const int cx = static_cast<int>(me) % pg.px;
    const int cy = (static_cast<int>(me) / pg.px) % pg.py;
    const int cz = static_cast<int>(me) / (pg.px * pg.py);
    std::vector<Level> levels(static_cast<std::size_t>(nlevels));
    for (int l = 0; l < nlevels; ++l) {
      Level& L = levels[static_cast<std::size_t>(l)];
      L.n = geom[static_cast<std::size_t>(l)][0];
      L.lnx = geom[static_cast<std::size_t>(l)][1];
      L.lny = geom[static_cast<std::size_t>(l)][2];
      L.lnz = geom[static_cast<std::size_t>(l)][3];
      L.alloc();
    }
    // Smooth, global source on the finest level.
    {
      Level& L = levels[0];
      const int x0 = cx * L.lnx, y0 = cy * L.lny, z0 = cz * L.lnz;
      for (int k = 1; k <= L.lnz; ++k) {
        for (int j = 1; j <= L.lny; ++j) {
          for (int i = 1; i <= L.lnx; ++i) {
            L.f[L.idx(i, j, k)] = std::sin(0.37 * (x0 + i)) *
                                  std::cos(0.21 * (y0 + j)) *
                                  std::sin(0.29 * (z0 + k));
          }
        }
      }
      charge(cost.flops(8 * L.points()));
    }

    auto fullExchange = [&](int l, std::vector<double>& field) {
      beginX(l, field);
      endX(l, field);
    };

    auto smooth = [&](int l) {
      Level& L = levels[static_cast<std::size_t>(l)];
      beginX(l, L.u);
      // Interior while faces are in flight — the ARMCI non-blocking
      // version's overlap (Sec. 4.4).
      if (L.lnx >= 3 && L.lny >= 3 && L.lnz >= 3) {
        jacobiRange(L, 2, L.lnx - 1, 2, L.lny - 1, 2, L.lnz - 1);
        charge(cost.flops(10 * (L.lnx - 2) * (L.lny - 2) * (L.lnz - 2)));
      }
      endX(l, L.u);
      jacobiBoundaryShell(L);
      commitJacobi(L);
      charge(cost.flops(12 * L.points()));
    };

    std::function<void(int)> vcycle = [&](int l) {
      Level& L = levels[static_cast<std::size_t>(l)];
      if (l == nlevels - 1) {
        for (int s = 0; s < kMgCoarseSweeps; ++s) smooth(l);
        return;
      }
      smooth(l);
      smooth(l);
      // Residual with the same interior/boundary overlap as the smoother.
      beginX(l, L.u);
      if (L.lnx >= 3 && L.lny >= 3 && L.lnz >= 3) {
        computeResidualRange(L, 2, L.lnx - 1, 2, L.lny - 1, 2, L.lnz - 1);
        charge(cost.flops(9 * (L.lnx - 2) * (L.lny - 2) * (L.lnz - 2)));
      }
      endX(l, L.u);
      computeResidualBoundary(L);
      charge(cost.flops(9 * L.points()));
      // Restrict while the fine-residual faces are in flight: only coarse
      // cells on the high faces read fine ghosts.
      Level& C = levels[static_cast<std::size_t>(l) + 1];
      beginX(l, L.r);
      const int cx2 = C.lnx - 1, cy2 = C.lny - 1, cz2 = C.lnz - 1;
      if (cx2 >= 1 && cy2 >= 1 && cz2 >= 1) {
        restrictResidualRange(L, C, 1, cx2, 1, cy2, 1, cz2);
        charge(cost.flops(9 * cx2 * cy2 * cz2));
      }
      endX(l, L.r);
      // High-face shell of the coarse grid.
      restrictResidualRange(L, C, C.lnx, C.lnx, 1, C.lny, 1, C.lnz);
      if (C.lnx > 1) {
        restrictResidualRange(L, C, 1, C.lnx - 1, C.lny, C.lny, 1, C.lnz);
      }
      if (C.lnx > 1 && C.lny > 1) {
        restrictResidualRange(L, C, 1, C.lnx - 1, 1, C.lny - 1, C.lnz,
                              C.lnz);
      }
      charge(cost.flops(9 * C.points()));
      std::fill(C.u.begin(), C.u.end(), 0.0);
      vcycle(l + 1);
      // The trilinear prolongation reads coarse edge/corner ghosts, which
      // only the sequential ghost-inclusive exchange fills.
      seqX(l + 1, C.u);
      prolongAdd(C, L);
      charge(cost.flops(12 * L.points()));
      smooth(l);
      smooth(l);
    };

    auto residualNorm = [&] {
      Level& L = levels[0];
      fullExchange(0, L.u);
      computeResidualRange(L, 1, L.lnx, 1, L.lny, 1, L.lnz);
      charge(cost.flops(9 * L.points()));
      double local = 0;
      for (int k = 1; k <= L.lnz; ++k) {
        for (int j = 1; j <= L.lny; ++j) {
          for (int i = 1; i <= L.lnx; ++i) {
            const double v = L.r[L.idx(i, j, k)];
            local += v * v;
          }
        }
      }
      charge(cost.flops(2 * L.points()));
      return std::sqrt(sum(local));
    };

    const double res0 = residualNorm();
    for (int c = 0; c < cycles; ++c) vcycle(0);
    const double res = residualNorm();
    if (me == 0) {
      res_out = res;
      if (!(res < res0 * 0.25) || !std::isfinite(res)) verified = false;
    }
  };

  // ---- neighbor helpers (shared) ----
  auto neighbor = [&](Rank me, int dir) -> Rank {
    const int cx = static_cast<int>(me) % pg.px;
    const int cy = (static_cast<int>(me) / pg.px) % pg.py;
    const int cz = static_cast<int>(me) / (pg.px * pg.py);
    int nx = cx, ny = cy, nzc = cz;
    switch (dir) {
      case 0: nx = cx - 1; break;
      case 1: nx = cx + 1; break;
      case 2: ny = cy - 1; break;
      case 3: ny = cy + 1; break;
      case 4: nzc = cz - 1; break;
      case 5: nzc = cz + 1; break;
      default: break;
    }
    if (nx < 0 || nx >= pg.px || ny < 0 || ny >= pg.py || nzc < 0 ||
        nzc >= pg.pz) {
      return -1;
    }
    return static_cast<Rank>((nzc * pg.py + ny) * pg.px + nx);
  };
  auto opposite = [](int dir) { return dir ^ 1; };

  if (params.variant == MgVariant::MpiBlocking) {
    mpi::Machine machine(makeJobConfig(params));
    machine.run([&](mpi::Mpi& mpi) {
      const Rank me = mpi.rank();
      std::array<std::vector<double>, 6> outbuf;
      std::vector<mpi::Request> reqs;
      auto begin = [&](int l, std::vector<double>& field) {
        Level L;
        L.lnx = geom[static_cast<std::size_t>(l)][1];
        L.lny = geom[static_cast<std::size_t>(l)][2];
        L.lnz = geom[static_cast<std::size_t>(l)][3];
        reqs.clear();
        for (int d = 0; d < 6; ++d) {
          const Rank nb = neighbor(me, d);
          if (nb < 0) continue;
          auto& in = inbox[static_cast<std::size_t>(l)]
                          [static_cast<std::size_t>(me)]
                          [static_cast<std::size_t>(d)];
          reqs.push_back(mpi.irecvT(in.data(), static_cast<int>(in.size()),
                                    nb, kMgTagExch + l * 8 + d));
        }
        for (int d = 0; d < 6; ++d) {
          const Rank nb = neighbor(me, d);
          if (nb < 0) continue;
          auto& ob = outbuf[static_cast<std::size_t>(d)];
          ob.resize(static_cast<std::size_t>(faceCount(L, d)));
          packFace(L, field, d, ob);
          reqs.push_back(mpi.isendT(ob.data(), static_cast<int>(ob.size()),
                                    nb, kMgTagExch + l * 8 + opposite(d)));
        }
      };
      auto end = [&](int l, std::vector<double>& field) {
        Level L;
        L.lnx = geom[static_cast<std::size_t>(l)][1];
        L.lny = geom[static_cast<std::size_t>(l)][2];
        L.lnz = geom[static_cast<std::size_t>(l)][3];
        mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
        for (int d = 0; d < 6; ++d) {
          if (neighbor(me, d) < 0) continue;
          unpackGhost(L, field,
                      d, inbox[static_cast<std::size_t>(l)]
                              [static_cast<std::size_t>(me)]
                              [static_cast<std::size_t>(d)]);
        }
      };
      // Sequential ghost-inclusive exchange (NPB comm3): axis by axis, each
      // phase fully completed before the next so edges/corners propagate.
      auto seq = [&](int l, std::vector<double>& field) {
        Level L;
        L.lnx = geom[static_cast<std::size_t>(l)][1];
        L.lny = geom[static_cast<std::size_t>(l)][2];
        L.lnz = geom[static_cast<std::size_t>(l)][3];
        for (int axis = 0; axis < 3; ++axis) {
          std::vector<mpi::Request> rr;
          for (int s = 0; s < 2; ++s) {
            const int d = axis * 2 + s;
            const Rank nb = neighbor(me, d);
            if (nb < 0) continue;
            auto& in = inbox[static_cast<std::size_t>(l)]
                            [static_cast<std::size_t>(me)]
                            [static_cast<std::size_t>(d)];
            rr.push_back(mpi.irecvT(in.data(), static_cast<int>(in.size()),
                                    nb, kMgTagExch + l * 8 + d));
          }
          for (int s = 0; s < 2; ++s) {
            const int d = axis * 2 + s;
            const Rank nb = neighbor(me, d);
            if (nb < 0) continue;
            auto& ob = outbuf[static_cast<std::size_t>(d)];
            ob.resize(static_cast<std::size_t>(faceCountIncl(L, d)));
            packFaceIncl(L, field, d, ob);
            rr.push_back(mpi.isendT(ob.data(), static_cast<int>(ob.size()),
                                    nb, kMgTagExch + l * 8 + opposite(d)));
          }
          mpi.waitall(rr.data(), static_cast<int>(rr.size()));
          for (int s = 0; s < 2; ++s) {
            const int d = axis * 2 + s;
            if (neighbor(me, d) < 0) continue;
            unpackGhostIncl(L, field,
                            d, inbox[static_cast<std::size_t>(l)]
                                    [static_cast<std::size_t>(me)]
                                    [static_cast<std::size_t>(d)]);
          }
        }
      };
      program(
          me, params.cost, [&](DurationNs d) { mpi.compute(d); }, begin, end,
          seq, [&](double local) {
            double g = 0;
            mpi.allreduce(&local, &g, 1, mpi::Op::Sum);
            return g;
          });
    });
    return nasResult(machine, res_out, verified);
  } else {
    armci::ArmciJobConfig cfg;
    cfg.nranks = params.nranks;
    cfg.fabric = params.fabric;
    setLibraryConfig(cfg.armci, params);
    cfg.trace = params.trace;
    cfg.workers = params.workers;
    armci::ArmciMachine machine(cfg);
    const bool nonblocking = params.variant == MgVariant::ArmciNonBlocking;
    machine.run([&](armci::Armci& a) {
      const Rank me = a.rank();
      // Name this rank's inbox faces as remote-access targets so the traced
      // puts carry stable (segment, offset) intervals for the race analysis.
      for (int l = 0; l < nlevels; ++l) {
        for (int d = 0; d < 6; ++d) {
          auto& in = inbox[static_cast<std::size_t>(l)]
                          [static_cast<std::size_t>(me)]
                          [static_cast<std::size_t>(d)];
          a.registerLocal(in.data(),
                          static_cast<Bytes>(in.size()) *
                              static_cast<Bytes>(sizeof(double)));
        }
      }
      std::array<std::vector<double>, 6> outbuf;
      auto begin = [&](int l, std::vector<double>& field) {
        Level L;
        L.lnx = geom[static_cast<std::size_t>(l)][1];
        L.lny = geom[static_cast<std::size_t>(l)][2];
        L.lnz = geom[static_cast<std::size_t>(l)][3];
        for (int d = 0; d < 6; ++d) {
          const Rank nb = neighbor(me, d);
          if (nb < 0) continue;
          auto& ob = outbuf[static_cast<std::size_t>(d)];
          ob.resize(static_cast<std::size_t>(faceCount(L, d)));
          packFace(L, field, d, ob);
          auto& dest = inbox[static_cast<std::size_t>(l)]
                            [static_cast<std::size_t>(nb)]
                            [static_cast<std::size_t>(opposite(d))];
          const Bytes n = static_cast<Bytes>(ob.size()) *
                          static_cast<Bytes>(sizeof(double));
          if (nonblocking) {
            (void)a.nbPut(ob.data(), dest.data(), n, nb);
          } else {
            a.put(ob.data(), dest.data(), n, nb);
          }
        }
      };
      auto end = [&](int l, std::vector<double>& field) {
        Level L;
        L.lnx = geom[static_cast<std::size_t>(l)][1];
        L.lny = geom[static_cast<std::size_t>(l)][2];
        L.lnz = geom[static_cast<std::size_t>(l)][3];
        if (nonblocking) a.fence(0);  // local puts delivered remotely
        a.barrier();                  // everyone's puts are in the inboxes
        for (int d = 0; d < 6; ++d) {
          if (neighbor(me, d) < 0) continue;
          unpackGhost(L, field,
                      d, inbox[static_cast<std::size_t>(l)]
                              [static_cast<std::size_t>(me)]
                              [static_cast<std::size_t>(d)]);
        }
        a.barrier();  // inboxes free for reuse
      };
      auto seq = [&](int l, std::vector<double>& field) {
        Level L;
        L.lnx = geom[static_cast<std::size_t>(l)][1];
        L.lny = geom[static_cast<std::size_t>(l)][2];
        L.lnz = geom[static_cast<std::size_t>(l)][3];
        for (int axis = 0; axis < 3; ++axis) {
          for (int s = 0; s < 2; ++s) {
            const int d = axis * 2 + s;
            const Rank nb = neighbor(me, d);
            if (nb < 0) continue;
            auto& ob = outbuf[static_cast<std::size_t>(d)];
            ob.resize(static_cast<std::size_t>(faceCountIncl(L, d)));
            packFaceIncl(L, field, d, ob);
            auto& dest = inbox[static_cast<std::size_t>(l)]
                              [static_cast<std::size_t>(nb)]
                              [static_cast<std::size_t>(opposite(d))];
            a.put(ob.data(), dest.data(),
                  static_cast<Bytes>(ob.size()) *
                      static_cast<Bytes>(sizeof(double)),
                  nb);
          }
          a.barrier();
          for (int s = 0; s < 2; ++s) {
            const int d = axis * 2 + s;
            if (neighbor(me, d) < 0) continue;
            unpackGhostIncl(L, field,
                            d, inbox[static_cast<std::size_t>(l)]
                                    [static_cast<std::size_t>(me)]
                                    [static_cast<std::size_t>(d)]);
          }
          a.barrier();
        }
      };
      program(
          me, params.cost, [&](DurationNs d) { a.compute(d); }, begin, end,
          seq, [&](double local) { return a.allreduceSum(local); });
    });
    return nasResult(machine, res_out, verified);
  }
}

}  // namespace ovp::nas
