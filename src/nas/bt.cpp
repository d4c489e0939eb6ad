#include "nas/bt.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "nas/block2d.hpp"

namespace ovp::nas {

namespace {

using tables::kNcomp;
using namespace tables::bt;  // NOLINT(google-build-using-namespace)

using Block = std::array<double, kNcomp * kNcomp>;  // row-major 5x5
using Vec5 = std::array<double, kNcomp>;

// y += M * x
void matvecAcc(const Block& m, const Vec5& x, Vec5& y) {
  for (int r = 0; r < kNcomp; ++r) {
    double acc = 0;
    for (int c = 0; c < kNcomp; ++c) {
      acc += m[static_cast<std::size_t>(r * kNcomp + c)] *
             x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(r)] += acc;
  }
}

// C -= A * B
void matmulSub(const Block& a, const Block& b, Block& c) {
  for (int r = 0; r < kNcomp; ++r) {
    for (int k = 0; k < kNcomp; ++k) {
      const double ark = a[static_cast<std::size_t>(r * kNcomp + k)];
      for (int j = 0; j < kNcomp; ++j) {
        c[static_cast<std::size_t>(r * kNcomp + j)] -=
            ark * b[static_cast<std::size_t>(k * kNcomp + j)];
      }
    }
  }
}

// v -= A * w
void matvecSub(const Block& a, const Vec5& w, Vec5& v) {
  for (int r = 0; r < kNcomp; ++r) {
    double acc = 0;
    for (int c = 0; c < kNcomp; ++c) {
      acc += a[static_cast<std::size_t>(r * kNcomp + c)] *
             w[static_cast<std::size_t>(c)];
    }
    v[static_cast<std::size_t>(r)] -= acc;
  }
}

/// Solves M * [X | y] = [Rhs | r] in place via Gaussian elimination with
/// partial pivoting: on return X (5x5) and y (5) hold the solutions.
void blockSolve(Block m, Block& x, Vec5& y) {
  // Augment implicitly: operate on m, x, y together.
  for (int col = 0; col < kNcomp; ++col) {
    int best = col;
    for (int r = col + 1; r < kNcomp; ++r) {
      if (std::fabs(m[static_cast<std::size_t>(r * kNcomp + col)]) >
          std::fabs(m[static_cast<std::size_t>(best * kNcomp + col)])) {
        best = r;
      }
    }
    if (best != col) {
      for (int j = 0; j < kNcomp; ++j) {
        std::swap(m[static_cast<std::size_t>(col * kNcomp + j)],
                  m[static_cast<std::size_t>(best * kNcomp + j)]);
        std::swap(x[static_cast<std::size_t>(col * kNcomp + j)],
                  x[static_cast<std::size_t>(best * kNcomp + j)]);
      }
      std::swap(y[static_cast<std::size_t>(col)],
                y[static_cast<std::size_t>(best)]);
    }
    const double inv = 1.0 / m[static_cast<std::size_t>(col * kNcomp + col)];
    for (int j = 0; j < kNcomp; ++j) {
      m[static_cast<std::size_t>(col * kNcomp + j)] *= inv;
      x[static_cast<std::size_t>(col * kNcomp + j)] *= inv;
    }
    y[static_cast<std::size_t>(col)] *= inv;
    for (int r = 0; r < kNcomp; ++r) {
      if (r == col) continue;
      const double f = m[static_cast<std::size_t>(r * kNcomp + col)];
      if (f == 0.0) continue;
      for (int j = 0; j < kNcomp; ++j) {
        m[static_cast<std::size_t>(r * kNcomp + j)] -=
            f * m[static_cast<std::size_t>(col * kNcomp + j)];
        x[static_cast<std::size_t>(r * kNcomp + j)] -=
            f * x[static_cast<std::size_t>(col * kNcomp + j)];
      }
      y[static_cast<std::size_t>(r)] -= f * y[static_cast<std::size_t>(col)];
    }
  }
}

/// Off-diagonal coupling block (fixed, partition-invariant): -I + small
/// dense perturbation.
Block offBlock() {
  Block b{};
  for (int r = 0; r < kNcomp; ++r) {
    for (int c = 0; c < kNcomp; ++c) {
      b[static_cast<std::size_t>(r * kNcomp + c)] =
          (r == c ? -1.0 : 0.0) + 0.04 * std::sin(0.7 * r + 1.3 * c);
    }
  }
  return b;
}

}  // namespace

NasResult runBt(const NasParams& params) {
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
    const Block kOff = offBlock();

    std::vector<double> u(blk.size(), 0.0);
    std::vector<double> rhs(u.size(), 0.0);
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < lny; ++j) {
        for (int i = 0; i < lnx; ++i) {
          const int gi = blk.x0 + i, gj = blk.y0 + j;
          for (int c = 0; c < kNcomp; ++c) {
            u[blk.at(i, j, k, c)] = std::cos(0.2 * gi - 0.09 * c) *
                                    std::sin(0.16 * gj + 0.05 * c) *
                                    std::cos(0.12 * (k + 1));
          }
        }
      }
    }
    const std::int64_t block_pts = blk.points();
    mpi.compute(cost.flops(8LL * block_pts * kNcomp));

    FaceExchange faces(blk);

    auto computeRhs = [&] {
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < lny; ++j) {
          for (int i = 0; i < lnx; ++i) {
            for (int c = 0; c < kNcomp; ++c) {
              const double lap =
                  u[blk.at(i - 1, j, k, c)] + u[blk.at(i + 1, j, k, c)] +
                  u[blk.at(i, j - 1, k, c)] + u[blk.at(i, j + 1, k, c)] +
                  (k > 0 ? u[blk.at(i, j, k - 1, c)] : 0.0) +
                  (k < nz - 1 ? u[blk.at(i, j, k + 1, c)] : 0.0) -
                  6.0 * u[blk.at(i, j, k, c)];
              rhs[blk.at(i, j, k, c)] = 0.1 * lap;
            }
          }
        }
      }
      mpi.compute(cost.flops(10LL * block_pts * kNcomp));
    };

    // Diagonal block of the cell whose u starts at storage offset `cell`:
    // 6I + data-dependent diagonal bump.
    auto diagBlock = [&](std::size_t cell) {
      Block m{};
      const double bump = 0.05 * std::sin(0.3 * u[cell]);
      for (int r = 0; r < kNcomp; ++r) {
        for (int c = 0; c < kNcomp; ++c) {
          m[static_cast<std::size_t>(r * kNcomp + c)] =
              (r == c ? 6.0 + bump : 0.02 * std::cos(0.9 * r - 0.4 * c));
        }
      }
      return m;
    };

    // ---------------- distributed block-tridiagonal solve ---------------
    // Batch layout: r[(line*n + i)*5 + c]; chat[(line*n + i)*25].
    int bn = 0, blines = 0;
    std::vector<double> br, bchat;
    std::vector<Block> bdiag;  // per (line,i) diagonal blocks (the "lhs")
    std::vector<double> fwd_in, fwd_out, bwd_in, bwd_out;

    auto solveBatch = [&](Rank up, Rank dn, int tag_fwd, int tag_bwd,
                          const std::function<void(int, int)>& fillLhs) {
      fwd_in.assign(static_cast<std::size_t>(blines) * kFwdDoubles, 0.0);
      fwd_out.assign(static_cast<std::size_t>(blines) * kFwdDoubles, 0.0);
      bwd_in.assign(static_cast<std::size_t>(blines) * kBwdDoubles, 0.0);
      bwd_out.assign(static_cast<std::size_t>(blines) * kBwdDoubles, 0.0);

      mpi::Request r_fwd;
      if (up >= 0) {
        r_fwd = mpi.irecvT(fwd_in.data(), blines * kFwdDoubles, up, tag_fwd);
      }
      // The lhs block assembly — BT's overlap window (NPB BT computes its
      // lhs between posting receives and waiting).
      fillLhs(0, blines);
      mpi.compute(cost.flops(40LL * blines * bn * kNcomp));
      if (up >= 0) mpi.wait(r_fwd);

      for (int l = 0; l < blines; ++l) {
        Block chat_prev;
        Vec5 rhat_prev;
        const double* in =
            fwd_in.data() + static_cast<std::size_t>(l) * kFwdDoubles;
        std::memcpy(chat_prev.data(), in, sizeof(Block));
        std::memcpy(rhat_prev.data(), in + kNcomp * kNcomp, sizeof(Vec5));
        for (int i = 0; i < bn; ++i) {
          const std::size_t p =
              static_cast<std::size_t>(l) * bn + static_cast<std::size_t>(i);
          Block b = bdiag[p];
          Vec5 r;
          std::memcpy(r.data(), &br[p * kNcomp], sizeof(Vec5));
          // Eliminate coupling to i-1: B' = B - A*Chat_{i-1},
          // r' = r - A*rhat_{i-1}.
          matmulSub(kOff, chat_prev, b);
          matvecSub(kOff, rhat_prev, r);
          // Normalize: solve B' [Chat_i | rhat_i] = [C | r'].
          Block chat = kOff;  // C (upper coupling) is the same fixed block
          blockSolve(b, chat, r);
          std::memcpy(&bchat[p * kNcomp * kNcomp], chat.data(), sizeof(Block));
          std::memcpy(&br[p * kNcomp], r.data(), sizeof(Vec5));
          chat_prev = chat;
          rhat_prev = r;
        }
        double* out =
            fwd_out.data() + static_cast<std::size_t>(l) * kFwdDoubles;
        std::memcpy(out, chat_prev.data(), sizeof(Block));
        std::memcpy(out + kNcomp * kNcomp, rhat_prev.data(), sizeof(Vec5));
      }
      mpi.compute(cost.flops(120LL * blines * bn * kNcomp));
      mpi::Request s_fwd;
      if (dn >= 0) {
        s_fwd = mpi.isendT(fwd_out.data(), blines * kFwdDoubles, dn, tag_fwd);
      }

      mpi::Request r_bwd;
      if (dn >= 0) {
        r_bwd = mpi.irecvT(bwd_in.data(), blines * kBwdDoubles, dn, tag_bwd);
      }
      mpi.compute(cost.flops(8LL * blines * bn * kNcomp));  // bookkeeping
      if (dn >= 0) mpi.wait(r_bwd);
      for (int l = 0; l < blines; ++l) {
        Vec5 xnext;
        std::memcpy(xnext.data(),
                    bwd_in.data() + static_cast<std::size_t>(l) * kBwdDoubles,
                    sizeof(Vec5));
        for (int i = bn - 1; i >= 0; --i) {
          const std::size_t p =
              static_cast<std::size_t>(l) * bn + static_cast<std::size_t>(i);
          Vec5 x;
          std::memcpy(x.data(), &br[p * kNcomp], sizeof(Vec5));
          Block chat;
          std::memcpy(chat.data(), &bchat[p * kNcomp * kNcomp], sizeof(Block));
          matvecSub(chat, xnext, x);
          std::memcpy(&br[p * kNcomp], x.data(), sizeof(Vec5));
          xnext = x;
        }
        std::memcpy(bwd_out.data() + static_cast<std::size_t>(l) * kBwdDoubles,
                    &br[static_cast<std::size_t>(l) * bn * kNcomp],
                    sizeof(Vec5));
      }
      mpi.compute(cost.flops(30LL * blines * bn * kNcomp));
      mpi::Request s_bwd;
      if (up >= 0) {
        s_bwd = mpi.isendT(bwd_out.data(), blines * kBwdDoubles, up, tag_bwd);
      }
      if (dn >= 0) mpi.wait(s_fwd);
      if (up >= 0) mpi.wait(s_bwd);
    };

    auto resizeBatch = [&](int lines, int n) {
      blines = lines;
      bn = n;
      br.assign(static_cast<std::size_t>(lines) * n * kNcomp, 0.0);
      bchat.assign(static_cast<std::size_t>(lines) * n * kNcomp * kNcomp, 0.0);
      bdiag.assign(static_cast<std::size_t>(lines) * n, Block{});
    };

    double zline_residual = 0.0;
    auto runDirection = [&](Axis axis) {
      const LineGeometry geo = blk.lines(axis);
      const int n = geo.length;
      resizeBatch(geo.count, n);
      geo.forPoints(0, geo.count, [&](std::size_t p, std::size_t cell) {
        for (int c = 0; c < kNcomp; ++c) br[p * kNcomp + c] = rhs[cell + c];
      });
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
      // A plain loop, not forPoints: the std::function solveBatch takes
      // allocates this lambda by its size, and BT's allocations must not
      // move, since IS's virtual time depends on where malloc placed them
      // when both run in one process.
      auto fill = [&](int l0, int l1) {
        for (int l = l0; l < l1; ++l) {
          const std::size_t first = geo.first(l);
          for (int i = 0; i < n; ++i) {
            bdiag[static_cast<std::size_t>(l) * n +
                  static_cast<std::size_t>(i)] =
                diagBlock(first + i * geo.step);
          }
        }
      };
      // z lines have no neighbours, so their tags are never used.
      const bool along_x = axis == Axis::X;
      solveBatch(geo.up, geo.down, along_x ? kTagFwdX : kTagFwdY,
                 along_x ? kTagBwdX : kTagBwdY, fill);
      if (axis == Axis::Z) {
        // Verify line 0 of the local z solve exactly: |A x - r|_inf with
        // the original blocks (recomputed) and the original rhs values.
        auto xs = [&](int i, int c) -> double {
          if (i < 0 || i >= n) return 0.0;
          return br[(static_cast<std::size_t>(i)) * kNcomp +
                    static_cast<std::size_t>(c)];
        };
        geo.forPoints(0, 1, [&](std::size_t p, std::size_t cell) {
          const int i = static_cast<int>(p);
          Vec5 ax{};
          Vec5 xm{}, xc{}, xp{};
          for (int c = 0; c < kNcomp; ++c) {
            xm[static_cast<std::size_t>(c)] = xs(i - 1, c);
            xc[static_cast<std::size_t>(c)] = xs(i, c);
            xp[static_cast<std::size_t>(c)] = xs(i + 1, c);
          }
          matvecAcc(kOff, xm, ax);
          matvecAcc(diagBlock(cell), xc, ax);
          matvecAcc(kOff, xp, ax);
          for (int c = 0; c < kNcomp; ++c) {
            zline_residual =
                std::max(zline_residual,
                         std::fabs(ax[static_cast<std::size_t>(c)] -
                                   rhs[cell + c]));
          }
        });
      }
      // For x and y the solve overwrites rhs right away; for z we must
      // keep rhs intact until the verification above has used it.
      geo.forPoints(0, geo.count, [&](std::size_t p, std::size_t cell) {
        for (int c = 0; c < kNcomp; ++c) rhs[cell + c] = br[p * kNcomp + c];
      });
      mpi.compute(cost.flops(2LL * block_pts * kNcomp));
    };

    for (int step = 0; step < niter; ++step) {
      faces.run(mpi, u, cost);
      computeRhs();
      const double pre = blockNorm(mpi, blk, rhs, cost);
      runDirection(Axis::X);
      runDirection(Axis::Y);
      runDirection(Axis::Z);
      const double post = blockNorm(mpi, blk, rhs, cost);
      if (me == 0) {
        if (!(post < pre * 1.001) || !std::isfinite(post)) verified = false;
        if (zline_residual > 1e-9) verified = false;
      }
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
