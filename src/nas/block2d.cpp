#include "nas/block2d.hpp"

#include <cmath>
#include <utility>

namespace ovp::nas {

namespace {

using tables::kD;
using tables::kNcomp;

/// Calls f with the storage offset of every value of the planes
/// [first, first + ghost) across `face`'s axis, in message order: plane,
/// k, the cell along the face, component.
template <typename F>
void forFacePlanes(const Block2D& b, const BlockFace& face, int first, F f) {
  const int along = face.along_x ? b.lny : b.lnx;
  for (int plane = first; plane < first + b.spec.ghost; ++plane) {
    for (int k = 0; k < b.nz; ++k) {
      for (int m = 0; m < along; ++m) {
        const std::size_t p =
            face.along_x ? b.at(plane, m, k, 0) : b.at(m, plane, k, 0);
        for (int c = 0; c < kNcomp; ++c) f(p + static_cast<std::size_t>(c));
      }
    }
  }
}

}  // namespace

std::string Block2D::splitError(const tables::GridSizes& sz,
                                const Grid2D& pg,
                                const tables::FaceSpec& spec) {
  if (sz.nx % pg.px != 0 || sz.ny % pg.py != 0) {
    return "grid is not divisible by the 2-D process grid";
  }
  if (sz.nx / pg.px < spec.ghost || sz.ny / pg.py < spec.ghost) {
    return "blocks of " + std::to_string(sz.nx / pg.px) + "x" +
           std::to_string(sz.ny / pg.py) + " cells are thinner than the " +
           std::to_string(spec.ghost) + " ghost planes";
  }
  return {};
}

Block2D::Block2D(const tables::GridSizes& sz, const Grid2D& pg,
                 const tables::FaceSpec& face_spec, Rank me)
    : spec(face_spec), lnx(sz.nx / pg.px), lny(sz.ny / pg.py), nz(sz.nz) {
  const int pi = static_cast<int>(me) % pg.px;
  const int pj = static_cast<int>(me) / pg.px;
  west = pi > 0 ? me - 1 : -1;
  east = pi < pg.px - 1 ? me + 1 : -1;
  north = pj > 0 ? me - pg.px : -1;
  south = pj < pg.py - 1 ? me + pg.px : -1;
  x0 = pi * lnx;
  y0 = pj * lny;
  gx_ = static_cast<std::size_t>(lnx + 2 * spec.ghost);
  gy_ = static_cast<std::size_t>(lny + 2 * spec.ghost);
}

std::array<BlockFace, 4> Block2D::faces() const {
  const int g = spec.ghost;
  const int fx = g * lny * nz * kNcomp;
  const int fy = g * lnx * nz * kNcomp;
  return {{{west, true, spec.tag_x, fx, 0, -g},
           {east, true, spec.tag_x, fx, lnx - g, lnx},
           {north, false, spec.tag_y, fy, 0, -g},
           {south, false, spec.tag_y, fy, lny - g, lny}}};
}

int Block2D::faceDoubles() const {
  return spec.ghost * (lny + lnx) * nz * kNcomp;
}

LineGeometry Block2D::lines(Axis axis) const {
  const std::size_t cell = kNcomp;
  const std::size_t row = gx_ * cell;
  const std::size_t plane = gy_ * row;
  LineGeometry g;
  g.origin_ = at(0, 0, 0, 0);
  switch (axis) {
    case Axis::X:  // line (j, k), points along i
      g.count = lny * nz;
      g.length = lnx;
      g.up = west;
      g.down = east;
      g.step = cell;
      g.outer_ = lny;
      g.outer_step_ = plane;
      g.inner_step_ = row;
      break;
    case Axis::Y:  // line (i, k), points along j
      g.count = lnx * nz;
      g.length = lny;
      g.up = north;
      g.down = south;
      g.step = row;
      g.outer_ = lnx;
      g.outer_step_ = plane;
      g.inner_step_ = cell;
      break;
    case Axis::Z:  // line (i, j), points along k; no neighbours
      g.count = lnx * lny;
      g.length = nz;
      g.step = plane;
      g.outer_ = lnx;
      g.outer_step_ = row;
      g.inner_step_ = cell;
      break;
  }
  return g;
}

FaceExchange::FaceExchange(const Block2D& block) : block_(block) {
  const std::array<BlockFace, 4> faces = block.faces();
  for (std::size_t d = 0; d < faces.size(); ++d) {
    const auto n = static_cast<std::size_t>(faces[d].doubles);
    bufs_[d].out.assign(n, 0.0);
    bufs_[d].in.assign(n, 0.0);
  }
}

void FaceExchange::run(mpi::Mpi& mpi, std::vector<double>& u,
                       const CostModel& cost) {
  const std::array<BlockFace, 4> faces = block_.faces();
  std::vector<mpi::Request> reqs;
  for (std::size_t d = 0; d < faces.size(); ++d) {
    const BlockFace& f = faces[d];
    if (f.peer >= 0) {
      reqs.push_back(mpi.irecvT(bufs_[d].in.data(), f.doubles, f.peer, f.tag));
    }
  }
  for (std::size_t d = 0; d < faces.size(); ++d) {
    const BlockFace& f = faces[d];
    if (f.peer < 0) continue;
    double* out = bufs_[d].out.data();
    forFacePlanes(block_, f, f.send_first,
                  [&](std::size_t p) { *out++ = u[p]; });
    reqs.push_back(mpi.isendT(bufs_[d].out.data(), f.doubles, f.peer, f.tag));
  }
  const int doubles = block_.faceDoubles();
  mpi.compute(cost.flops(
      static_cast<std::int64_t>(block_.spec.pre_wait_flops) * doubles));
  mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
  for (std::size_t d = 0; d < faces.size(); ++d) {
    const BlockFace& f = faces[d];
    if (f.peer < 0) continue;
    const double* in = bufs_[d].in.data();
    forFacePlanes(block_, f, f.recv_first,
                  [&](std::size_t p) { u[p] = *in++; });
  }
  mpi.compute(cost.flops(2LL * doubles));
}

void emitFaceExchange(skel::RankBuilder& rb, const Block2D& block,
                      const CostModel& cost) {
  const std::array<BlockFace, 4> faces = block.faces();
  std::vector<int> reqs;
  for (const BlockFace& f : faces) {
    if (f.peer >= 0) reqs.push_back(rb.irecv(f.peer, f.tag, f.doubles * kD));
  }
  for (const BlockFace& f : faces) {
    if (f.peer >= 0) reqs.push_back(rb.isend(f.peer, f.tag, f.doubles * kD));
  }
  const int doubles = block.faceDoubles();
  rb.compute(cost.flops(
      static_cast<std::int64_t>(block.spec.pre_wait_flops) * doubles));
  rb.waitall(std::move(reqs));
  rb.compute(cost.flops(2LL * doubles));
}

double blockNorm(mpi::Mpi& mpi, const Block2D& block,
                 const std::vector<double>& v, const CostModel& cost) {
  double local = 0;
  block.forInterior([&](std::size_t p) { local += v[p] * v[p]; });
  mpi.compute(cost.flops(2LL * block.points() * kNcomp));
  double global = 0;
  mpi.allreduce(&local, &global, 1, mpi::Op::Sum);
  return std::sqrt(global);
}

}  // namespace ovp::nas
