#include "nas/mg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "armci/armci.hpp"
#include "nas/class_tables.hpp"

namespace ovp::nas {

namespace {

constexpr double kOmega = 2.0 / 3.0;  // damped-Jacobi weight

/// Tag of the face that arrives from side d at level l.
constexpr int faceTag(int l, int d) {
  return tables::kMgTagExch + l * 8 + d;
}

/// The cells [i0,i1] x [j0,j1] x [k0,k1] of a block (none when i1 < i0,
/// j1 < j0 or k1 < k0).
struct Box {
  int i0, i1, j0, j1, k0, k1;
  [[nodiscard]] std::int64_t cells() const {
    return static_cast<std::int64_t>(i1 - i0 + 1) * (j1 - j0 + 1) *
           (k1 - k0 + 1);
  }
};

/// One level of a rank's block: interior cells 1..lnx x 1..lny x 1..lnz and
/// a ghost plane beyond each side, zero (Dirichlet) at the global domain's
/// edge.  Sides, and the faces across them: 0/1 = -x/+x, 2/3 = -y/+y,
/// 4/5 = -z/+z.
struct Shape {
  int lnx = 0, lny = 0, lnz = 0;

  [[nodiscard]] int extent(int axis) const {
    return axis == 0 ? lnx : (axis == 1 ? lny : lnz);
  }
  /// Storage distance between neighbouring cells along `axis`.
  [[nodiscard]] std::size_t stride(int axis) const {
    const auto sx = static_cast<std::size_t>(lnx + 2);
    return axis == 0 ? 1
                     : (axis == 1 ? sx
                                  : sx * static_cast<std::size_t>(lny + 2));
  }
  [[nodiscard]] std::size_t idx(int i, int j, int k) const {
    return static_cast<std::size_t>(k) * stride(2) +
           static_cast<std::size_t>(j) * stride(1) +
           static_cast<std::size_t>(i);
  }
  [[nodiscard]] std::size_t storage() const {
    return stride(2) * static_cast<std::size_t>(lnz + 2);
  }
  [[nodiscard]] Box whole() const { return {1, lnx, 1, lny, 1, lnz}; }
  [[nodiscard]] std::int64_t points() const { return whole().cells(); }
  /// Whether the block splits into an interior box, whose cells read no
  /// ghost, and the one-cell shell around it (forShell).
  [[nodiscard]] bool splits() const {
    return lnx >= 3 && lny >= 3 && lnz >= 3;
  }
  [[nodiscard]] Box interior() const {
    return {2, lnx - 1, 2, lny - 1, 2, lnz - 1};
  }
  /// The cells the face across side `dir` spans along another `axis`:
  /// 1..extent, or 0..extent+1 on an inclusive face when `axis` comes
  /// before dir's.  Exchanging x, y and z in turn with inclusive faces (NPB
  /// comm3) carries the earlier axes' ghosts along, so the edge and corner
  /// ghosts the trilinear prolongation reads end up current.
  [[nodiscard]] std::array<int, 2> span(int axis, int dir,
                                        bool inclusive) const {
    const int g = inclusive && axis < dir / 2 ? 1 : 0;
    return {1 - g, extent(axis) + g};
  }
  [[nodiscard]] int faceSize(int dir, bool inclusive) const {
    int size = 1;
    for (int axis = 0; axis < 3; ++axis) {
      if (axis == dir / 2) continue;
      const auto [lo, hi] = span(axis, dir, inclusive);
      size *= hi - lo + 1;
    }
    return size;
  }
};

struct Level : Shape {
  std::vector<double> u, f, r, scratch;
  explicit Level(const Shape& s)
      : Shape(s),
        u(storage(), 0.0),
        f(storage(), 0.0),
        r(storage(), 0.0),
        scratch(storage(), 0.0) {}
};

/// Calls f(i, j, k, p) for each cell of box b in storage order, where
/// p = s.idx(i, j, k).
template <typename F>
void forBox(const Shape& s, const Box& b, const F& f) {
  for (int k = b.k0; k <= b.k1; ++k) {
    for (int j = b.j0; j <= b.j1; ++j) {
      for (int i = b.i0; i <= b.i1; ++i) f(i, j, k, s.idx(i, j, k));
    }
  }
}

/// Calls out(p, au) for each cell p of box b, au being the 7-point
/// operator: 6 u(p) minus u at p's six neighbours.  Reads only u, so
/// splitting a block into boxes gives the same values.
template <typename Out>
void sweep(const Level& L, const Box& b, const Out& out) {
  const std::vector<double>& u = L.u;
  const std::size_t sy = L.stride(1), sz = L.stride(2);
  forBox(L, b, [&](int, int, int, std::size_t p) {
    out(p, 6.0 * u[p] - u[p - 1] - u[p + 1] - u[p - sy] - u[p + sy] -
               u[p - sz] - u[p + sz]);
  });
}

/// Calls f(box) for the six slabs of the one-cell shell around the
/// interior box, or once for the whole block when it does not split.
template <typename F>
void forShell(const Shape& s, const F& f) {
  const int X = s.lnx, Y = s.lny, Z = s.lnz;
  if (!s.splits()) {
    f(s.whole());
    return;
  }
  f(Box{1, X, 1, Y, 1, 1});
  f(Box{1, X, 1, Y, Z, Z});
  f(Box{1, X, 1, 1, 2, Z - 1});
  f(Box{1, X, Y, Y, 2, Z - 1});
  f(Box{1, 1, 2, Y - 1, 2, Z - 1});
  f(Box{X, X, 2, Y - 1, 2, Z - 1});
}

/// Copies the face across side `dir` between `field` and `buf`: pack reads
/// the interior plane next to that side, unpack writes the ghost plane
/// beyond it.  The faster of the two axes across the face is innermost.
void copyFace(const Shape& s, std::vector<double>& field, int dir,
              bool inclusive, bool pack, std::vector<double>& buf) {
  const int axis = dir / 2;
  const int fast = axis == 0 ? 1 : 0, slow = axis == 2 ? 1 : 2;
  const int plane = (dir & 1) != 0 ? s.extent(axis) + (pack ? 0 : 1)
                                   : (pack ? 1 : 0);
  const auto [f0, f1] = s.span(fast, dir, inclusive);
  const auto [s0, s1] = s.span(slow, dir, inclusive);
  std::size_t at = 0;
  for (int y = s0; y <= s1; ++y) {
    std::size_t p = static_cast<std::size_t>(plane) * s.stride(axis) +
                    static_cast<std::size_t>(y) * s.stride(slow) +
                    static_cast<std::size_t>(f0) * s.stride(fast);
    for (int x = f0; x <= f1; ++x, ++at, p += s.stride(fast)) {
      if (pack) {
        buf[at] = field[p];
      } else {
        field[p] = buf[at];
      }
    }
  }
}

/// Half-weighted restriction of fine.r into coarse.f over the coarse cells
/// of box b.  Coarse i reads fine 2i and 2i +- 1, so only cells on the high
/// faces read fine ghosts, which must then be current.
void restrictResidual(const Level& fine, Level& coarse, const Box& b) {
  const std::vector<double>& r = fine.r;
  const std::size_t sy = fine.stride(1), sz = fine.stride(2);
  forBox(coarse, b, [&](int i, int j, int k, std::size_t p) {
    const std::size_t q = fine.idx(2 * i, 2 * j, 2 * k);
    const double faces =
        r[q - 1] + r[q + 1] + r[q - sy] + r[q + sy] + r[q - sz] + r[q + sz];
    coarse.f[p] = 4.0 * (0.5 * r[q] + faces / 12.0);
  });
}

/// Trilinear prolongation of coarse.u added into fine.u (coarse ghosts of u
/// must be current).
void prolongAdd(const Level& coarse, Level& fine) {
  forBox(fine, fine.whole(), [&](int i, int j, int k, std::size_t p) {
    double v = 0.0;
    for (const int kc : {k / 2, (k + 1) / 2}) {
      for (const int jc : {j / 2, (j + 1) / 2}) {
        for (const int ic : {i / 2, (i + 1) / 2}) {
          v += coarse.u[coarse.idx(ic, jc, kc)];
        }
      }
    }
    // The 8-combination loop visits each distinct coarse point
    // 2^(#even axes) times; dividing by 8 yields exactly the trilinear
    // weights (1 on even axes, 1/2-1/2 on odd axes).
    fine.u[p] += v / 8.0;
  });
}

/// The sides [lo, hi) one exchange covers: all six, or one axis's two.
struct Sides {
  int lo, hi;
};
constexpr Sides kAllSides{0, 6};

/// One library's half of a face exchange at level l: post starts it,
/// complete waits for it and fills `field`'s ghosts.  The overlapped
/// exchange covers kAllSides with plain faces; NPB comm3's sequential one
/// covers one axis at a time with inclusive faces.
using Exchange =
    std::function<void(int l, std::vector<double>& field, Sides sides,
                       bool inclusive)>;

/// One rank's end of the face exchange, whichever library carries it: its
/// cell of the px x py x pz process grid, its neighbour across each side
/// (-1 at the domain's edge) and its outgoing faces.  The face rank r
/// receives from side d at level l lands in inbox(l, r, d), which is sized
/// for the inclusive face.
struct Halo {
  const std::vector<Shape>& shapes;
  std::vector<std::vector<double>>& inboxes;  // by level, rank, side
  Rank me;
  int nranks;
  std::array<int, 3> cell{};
  std::array<Rank, 6> peer{};
  std::array<std::vector<double>, 6> out;

  Halo(const std::vector<Shape>& s, std::vector<std::vector<double>>& in,
       const Grid3D& pg, Rank r)
      : shapes(s), inboxes(in), me(r), nranks(pg.px * pg.py * pg.pz) {
    const std::array<int, 3> dims = {pg.px, pg.py, pg.pz};
    const std::array<int, 3> step = {1, pg.px, pg.px * pg.py};
    for (int a = 0; a < 3; ++a) cell[a] = me / step[a] % dims[a];
    for (int d = 0; d < 6; ++d) {
      const int a = d / 2, delta = (d & 1) != 0 ? 1 : -1;
      const int c = cell[a] + delta;
      peer[d] = c < 0 || c >= dims[a] ? -1 : me + delta * step[a];
    }
  }
  std::vector<double>& inbox(int l, Rank r, int d) {
    return inboxes[(static_cast<std::size_t>(l) * nranks +
                    static_cast<std::size_t>(r)) * 6 +
                   static_cast<std::size_t>(d)];
  }
  /// Packs field's face across side d into out[d].
  std::vector<double>& pack(int l, std::vector<double>& field, int d,
                            bool inclusive) {
    const Shape& s = shapes[static_cast<std::size_t>(l)];
    std::vector<double>& face = out[static_cast<std::size_t>(d)];
    face.resize(static_cast<std::size_t>(s.faceSize(d, inclusive)));
    copyFace(s, field, d, inclusive, true, face);
    return face;
  }
  /// Copies the faces that arrived across `sides` into field's ghosts.
  void unpack(int l, std::vector<double>& field, Sides sides,
              bool inclusive) {
    for (int d = sides.lo; d < sides.hi; ++d) {
      if (peer[d] < 0) continue;
      copyFace(shapes[static_cast<std::size_t>(l)], field, d, inclusive,
               false, inbox(l, me, d));
    }
  }
};

}  // namespace

NasResult runMg(const MgParams& params) {
  const tables::MgSizes sz = tables::mgSizes(params.cls);
  const int cycles = params.iterations > 0 ? params.iterations : sz.cycles;
  const int P = params.nranks;
  const Grid3D pg = factor3d(P);

  // The level shapes every rank shares: halve while the grid splits.
  std::vector<Shape> shapes;
  for (int n = sz.n;; n /= 2) {
    if (n % pg.px != 0 || n % pg.py != 0 || n % pg.pz != 0) break;
    const Shape s{n / pg.px, n / pg.py, n / pg.pz};
    if (s.lnx < 1 || s.lny < 1 || s.lnz < 1) break;
    shapes.push_back(s);
    if (n / 2 < 4) break;
  }
  const int nlevels = static_cast<int>(shapes.size());
  if (nlevels == 0) {
    return cannotRun("the " + std::to_string(sz.n) + "^3 grid is not " +
                     "divisible by the " + std::to_string(pg.px) + "x" +
                     std::to_string(pg.py) + "x" + std::to_string(pg.pz) +
                     " process grid");
  }

  // Every rank's inboxes, by level, rank and side (Halo::inbox).
  std::vector<std::vector<double>> inboxes;
  inboxes.reserve(shapes.size() * static_cast<std::size_t>(P) * 6);
  for (const Shape& s : shapes) {
    for (int rk = 0; rk < P; ++rk) {
      for (int d = 0; d < 6; ++d) {
        inboxes.emplace_back(static_cast<std::size_t>(s.faceSize(d, true)),
                             0.0);
      }
    }
  }

  double res_out = 0.0;
  bool verified = true;

  // The per-rank program; the library comes in as `post`/`complete`.
  const CostModel& cost = params.cost;
  auto program = [&](Rank me, const std::array<int, 3>& cell,
                     const std::function<void(DurationNs)>& charge,
                     const Exchange& post, const Exchange& complete,
                     const std::function<double(double)>& sum) {
    std::vector<Level> levels(shapes.begin(), shapes.end());
    const auto lvl = [&](int l) -> Level& {
      return levels[static_cast<std::size_t>(l)];
    };
    // Smooth, global source on the finest level.
    {
      Level& L = levels[0];
      const int x0 = cell[0] * L.lnx, y0 = cell[1] * L.lny,
                z0 = cell[2] * L.lnz;
      forBox(L, L.whole(), [&](int i, int j, int k, std::size_t p) {
        L.f[p] = std::sin(0.37 * (x0 + i)) * std::cos(0.21 * (y0 + j)) *
                 std::sin(0.29 * (z0 + k));
      });
      charge(cost.flops(8 * L.points()));
    }

    // Posts the exchange of field's faces, runs `interior` while they are
    // in flight — the non-blocking ARMCI variant's overlap (Sec. 4.4) —
    // then completes it and runs `shell`, which reads the ghosts.
    const auto overlapped = [&](int l, std::vector<double>& field,
                                const auto& interior, const auto& shell) {
      post(l, field, kAllSides, false);
      interior();
      complete(l, field, kAllSides, false);
      shell();
    };
    // A 7-point step over level l, out(p, au) on every cell, with the
    // interior (charged `flops` per cell) overlapped with u's exchange.
    const auto stencil = [&](int l, int flops, const auto& out) {
      Level& L = lvl(l);
      overlapped(
          l, L.u,
          [&] {
            if (!L.splits()) return;
            sweep(L, L.interior(), out);
            charge(cost.flops(flops * L.interior().cells()));
          },
          [&] { forShell(L, [&](const Box& b) { sweep(L, b, out); }); });
    };
    const auto residualOf = [](Level& L) {
      return [&L](std::size_t p, double au) { L.r[p] = L.f[p] - au; };
    };

    const auto smooth = [&](int l) {
      Level& L = lvl(l);
      stencil(l, 10, [&](std::size_t p, double au) {
        L.scratch[p] = L.u[p] + kOmega / 6.0 * (L.f[p] - au);
      });
      forBox(L, L.whole(),
             [&](int, int, int, std::size_t p) { L.u[p] = L.scratch[p]; });
      charge(cost.flops(12 * L.points()));
    };

    std::function<void(int)> vcycle = [&](int l) {
      Level& L = lvl(l);
      if (l == nlevels - 1) {
        for (int s = 0; s < tables::kMgCoarseSweeps; ++s) smooth(l);
        return;
      }
      smooth(l);
      smooth(l);
      stencil(l, 9, residualOf(L));
      charge(cost.flops(9 * L.points()));
      // Restrict while the fine residual's faces are in flight; then the
      // coarse grid's high-face shell, the cells that read fine ghosts.
      Level& C = lvl(l + 1);
      const Box inner{1, C.lnx - 1, 1, C.lny - 1, 1, C.lnz - 1};
      overlapped(
          l, L.r,
          [&] {
            if (inner.i1 < 1 || inner.j1 < 1 || inner.k1 < 1) return;
            restrictResidual(L, C, inner);
            charge(cost.flops(9 * inner.cells()));
          },
          [&] {
            restrictResidual(L, C, {C.lnx, C.lnx, 1, C.lny, 1, C.lnz});
            restrictResidual(L, C, {1, C.lnx - 1, C.lny, C.lny, 1, C.lnz});
            restrictResidual(L, C, {1, C.lnx - 1, 1, C.lny - 1, C.lnz, C.lnz});
          });
      charge(cost.flops(9 * C.points()));
      std::fill(C.u.begin(), C.u.end(), 0.0);
      vcycle(l + 1);
      // The trilinear prolongation reads coarse edge and corner ghosts,
      // which only the sequential exchange fills: each axis in turn, with
      // inclusive faces, completed before the next.
      for (int a = 0; a < 3; ++a) {
        post(l + 1, C.u, {2 * a, 2 * a + 2}, true);
        complete(l + 1, C.u, {2 * a, 2 * a + 2}, true);
      }
      prolongAdd(C, L);
      charge(cost.flops(12 * L.points()));
      smooth(l);
      smooth(l);
    };

    auto residualNorm = [&] {
      Level& L = levels[0];
      post(0, L.u, kAllSides, false);
      complete(0, L.u, kAllSides, false);
      sweep(L, L.whole(), residualOf(L));
      charge(cost.flops(9 * L.points()));
      double local = 0;
      forBox(L, L.whole(), [&](int, int, int, std::size_t p) {
        local += L.r[p] * L.r[p];
      });
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

  if (params.variant == MgVariant::MpiBlocking) {
    mpi::Machine machine(makeJobConfig(params));
    machine.run([&](mpi::Mpi& mpi) {
      const Rank me = mpi.rank();
      Halo h(shapes, inboxes, pg, me);
      std::vector<mpi::Request> reqs;
      const Exchange post = [&](int l, std::vector<double>& field, Sides sides,
                                bool inclusive) {
        reqs.clear();
        for (int d = sides.lo; d < sides.hi; ++d) {
          if (h.peer[d] < 0) continue;
          std::vector<double>& in = h.inbox(l, me, d);
          reqs.push_back(mpi.irecvT(in.data(), static_cast<int>(in.size()),
                                    h.peer[d], faceTag(l, d)));
        }
        for (int d = sides.lo; d < sides.hi; ++d) {
          if (h.peer[d] < 0) continue;
          const std::vector<double>& out = h.pack(l, field, d, inclusive);
          reqs.push_back(mpi.isendT(out.data(), static_cast<int>(out.size()),
                                    h.peer[d], faceTag(l, d ^ 1)));
        }
      };
      const Exchange complete = [&](int l, std::vector<double>& field,
                                    Sides sides, bool inclusive) {
        mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
        h.unpack(l, field, sides, inclusive);
      };
      program(
          me, h.cell, [&](DurationNs d) { mpi.compute(d); }, post, complete,
          [&](double local) {
            double g = 0;
            mpi.allreduce(&local, &g, 1, mpi::Op::Sum);
            return g;
          });
    });
    return nasResult(machine, res_out, verified);
  }

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
    Halo h(shapes, inboxes, pg, me);
    const auto bytes = [](const std::vector<double>& v) {
      return static_cast<Bytes>(v.size()) * static_cast<Bytes>(sizeof(double));
    };
    // Name this rank's inboxes as remote-access targets so the traced puts
    // carry stable (segment, offset) intervals for the race analysis.
    for (int l = 0; l < nlevels; ++l) {
      for (int d = 0; d < 6; ++d) {
        std::vector<double>& in = h.inbox(l, me, d);
        a.registerLocal(in.data(), bytes(in));
      }
    }
    // Only the overlapped exchange puts non-blocking: the sequential one
    // completes each axis before it posts the next.
    const Exchange post = [&](int l, std::vector<double>& field, Sides sides,
                              bool inclusive) {
      for (int d = sides.lo; d < sides.hi; ++d) {
        const Rank nb = h.peer[d];
        if (nb < 0) continue;
        const std::vector<double>& out = h.pack(l, field, d, inclusive);
        double* dest = h.inbox(l, nb, d ^ 1).data();
        if (nonblocking && !inclusive) {
          (void)a.nbPut(out.data(), dest, bytes(out), nb);
        } else {
          a.put(out.data(), dest, bytes(out), nb);
        }
      }
    };
    const Exchange complete = [&](int l, std::vector<double>& field,
                                  Sides sides, bool inclusive) {
      if (nonblocking && !inclusive) a.fence(0);  // puts delivered remotely
      a.barrier();  // everyone's puts are in the inboxes
      h.unpack(l, field, sides, inclusive);
      a.barrier();  // inboxes free for reuse
    };
    program(
        me, h.cell, [&](DurationNs d) { a.compute(d); }, post, complete,
        [&](double local) { return a.allreduceSum(local); });
  });
  return nasResult(machine, res_out, verified);
}

}  // namespace ovp::nas
