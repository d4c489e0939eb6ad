// The 2-D block decomposition LU, SP and BT share, written once.
//
// Rank me of the factor2d(P) process grid px x py sits in grid column
// me % px and row me / px, and owns an nx/px by ny/py block of each of the
// nz planes.  Its west/east neighbours are the ranks beside it in x, its
// north/south neighbours those beside it in y (-1 at the domain's edge).
// A field is one flat array over the block plus `ghost` planes on each
// side in x and y, which mirror the neighbours' edge cells; `at` indexes
// it with interior-relative coordinates, i in [-ghost, lnx + ghost), j
// likewise, k in [0, nz), component c in [0, kNcomp).
//
// The kernels (lu.cpp, sp.cpp, bt.cpp) and their unrolled skeletons
// (skeletons.cpp) read the same block: the kernels swap ghost faces
// through FaceExchange, the skeletons emit the same messages through
// emitFaceExchange, both driven by the kernel's tables::FaceSpec, and SP's
// and BT's directional solves, kernel and skeleton, walk one LineGeometry
// per axis.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "nas/class_tables.hpp"
#include "nas/common.hpp"
#include "skeleton/builder.hpp"

namespace ovp::nas {

enum class Axis : std::uint8_t { X, Y, Z };

/// The lines of one axis through a block, as the directional solves batch
/// them.  Line l of the x axis is the row (j, k) = (l % lny, l / lny), of
/// the y axis the column (i, k) = (l % lnx, l / lnx), of the z axis the
/// pillar (i, j) = (l % lnx, l / lnx); point i of a line is its i-th cell
/// along the axis.
struct LineGeometry {
  int count = 0;   // lines through the block
  int length = 0;  // points per line
  /// The neighbours holding the line's upstream (lower-index) and
  /// downstream parts; -1 at the domain's edge, and always along z.
  Rank up = -1;
  Rank down = -1;
  /// Storage offset between consecutive points of a line.
  std::size_t step = 0;

  /// Storage offset of component 0 of point 0 of line l.
  [[nodiscard]] std::size_t first(int l) const {
    return origin_ + static_cast<std::size_t>(l / outer_) * outer_step_ +
           static_cast<std::size_t>(l % outer_) * inner_step_;
  }
  /// Calls f(p, cell) for each point i of lines [l0, l1) in order, where
  /// p = l * length + i indexes the point in a batch of lines and cell is
  /// the storage offset of its component 0.
  template <typename F>
  void forPoints(int l0, int l1, F f) const {
    for (int l = l0; l < l1; ++l) {
      const std::size_t cell = first(l);
      const std::size_t p = static_cast<std::size_t>(l) * length;
      for (int i = 0; i < length; ++i) {
        f(p + static_cast<std::size_t>(i), cell + i * step);
      }
    }
  }

 private:
  friend struct Block2D;
  int outer_ = 1;  // lines per value of the slower line coordinate
  std::size_t origin_ = 0, outer_step_ = 0, inner_step_ = 0;
};

/// One side of a block: the neighbour across it and the face message.
struct BlockFace {
  Rank peer = -1;        // -1 at the domain's edge
  bool along_x = false;  // a west/east face (else north/south)
  int tag = 0;
  int doubles = 0;       // per message: ghost planes x face cells x kNcomp
  int send_first = 0;    // first interior plane sent, across the face's axis
  int recv_first = 0;    // first ghost plane received
};

struct Block2D {
  /// Why `sz` does not split over the process grid `pg` into blocks at
  /// least as wide as `spec`'s ghost planes; empty when it does.
  [[nodiscard]] static std::string splitError(const tables::GridSizes& sz,
                                              const Grid2D& pg,
                                              const tables::FaceSpec& spec);

  /// Rank me's block; `sz` must split over `pg` (splitError is empty).
  Block2D(const tables::GridSizes& sz, const Grid2D& pg,
          const tables::FaceSpec& spec, Rank me);

  tables::FaceSpec spec;
  Rank west = -1, east = -1, north = -1, south = -1;
  int lnx = 0, lny = 0, nz = 0;  // interior extents
  int x0 = 0, y0 = 0;            // global x, y of interior cell (0, 0)

  /// Storage offset of component c of cell (i, j, k).
  [[nodiscard]] std::size_t at(int i, int j, int k, int c) const {
    return ((static_cast<std::size_t>(k) * gy_ +
             static_cast<std::size_t>(j + spec.ghost)) * gx_ +
            static_cast<std::size_t>(i + spec.ghost)) * tables::kNcomp +
           static_cast<std::size_t>(c);
  }
  /// Doubles in a field over the ghosted block.
  [[nodiscard]] std::size_t size() const {
    return gx_ * gy_ * static_cast<std::size_t>(nz) * tables::kNcomp;
  }
  /// Interior cells.
  [[nodiscard]] std::int64_t points() const {
    return static_cast<std::int64_t>(lnx) * lny * nz;
  }
  /// Calls f with the storage offset of every interior value, in k, j, i,
  /// c order.
  template <typename F>
  void forInterior(F f) const {
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < lny; ++j) {
        for (int i = 0; i < lnx; ++i) {
          for (int c = 0; c < tables::kNcomp; ++c) f(at(i, j, k, c));
        }
      }
    }
  }
  /// The four sides in the order every exchange posts them: west, east,
  /// north, south.
  [[nodiscard]] std::array<BlockFace, 4> faces() const;
  /// Doubles in one west/east plus one north/south face message: what the
  /// exchange's flops are charged per, whichever faces it posts.
  [[nodiscard]] int faceDoubles() const;
  [[nodiscard]] LineGeometry lines(Axis axis) const;

 private:
  std::size_t gx_ = 0, gy_ = 0;  // ghosted extents in x and y
};

/// The kernel side of the ghost-face exchange.  Construction allocates the
/// eight face buffers, out and in for west, east, north and south in that
/// order.  run() posts a receive from every neighbour, then packs and sends
/// each face, charges spec.pre_wait_flops x faceDoubles() flops, waits for
/// all, unpacks the received planes into u's ghosts and charges
/// 2 x faceDoubles() flops.  `block` must outlive the exchange.
class FaceExchange {
 public:
  explicit FaceExchange(const Block2D& block);
  void run(mpi::Mpi& mpi, std::vector<double>& u, const CostModel& cost);

 private:
  struct Buffers {
    std::vector<double> out, in;
  };
  const Block2D& block_;
  std::array<Buffers, 4> bufs_;
};

/// The skeleton side: FaceExchange::run's messages and computes on rb.
void emitFaceExchange(skel::RankBuilder& rb, const Block2D& block,
                      const CostModel& cost);

/// sqrt of the sum over all ranks of v's squared interior values, summed
/// locally in k, j, i, c order; charges 2 flops per value, then allreduces.
[[nodiscard]] double blockNorm(mpi::Mpi& mpi, const Block2D& block,
                               const std::vector<double>& v,
                               const CostModel& cost);

}  // namespace ovp::nas
