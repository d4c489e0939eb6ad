#include "nas/common.hpp"

#include <cmath>
#include <utility>

#include "skeleton/symbolic/expr.hpp"

namespace ovp::nas {

overlap::OverlapAccum aggregateWhole(
    const std::vector<overlap::Report>& reports) {
  overlap::OverlapAccum acc;
  for (const auto& r : reports) acc += r.whole.total;
  return acc;
}

overlap::OverlapAccum aggregateSection(
    const std::vector<overlap::Report>& reports, std::string_view name) {
  overlap::OverlapAccum acc;
  for (const auto& r : reports) {
    if (const overlap::SectionReport* s = r.findSection(name)) {
      acc += s->total;
    }
  }
  return acc;
}

overlap::FaultStats aggregateFaults(
    const std::vector<overlap::Report>& reports) {
  overlap::FaultStats total;
  for (const auto& r : reports) total += r.faults;
  return total;
}

NasResult cannotRun(std::string why) {
  NasResult r;
  r.error = std::move(why);
  return r;
}

void setLibraryConfig(mpi::LibraryConfig& lib, const NasParams& p) {
  lib.instrument = p.instrument;
  lib.verify = p.verify;
  // Per-size-class breakdown like the paper's reports.
  lib.monitor.classes = overlap::SizeClasses::shortLong(16 * 1024);
}

mpi::JobConfig makeJobConfig(const NasParams& p) {
  mpi::JobConfig cfg;
  cfg.nranks = p.nranks;
  cfg.fabric = p.fabric;
  cfg.mpi.preset = p.preset;
  setLibraryConfig(cfg.mpi, p);
  cfg.trace = p.trace;
  cfg.workers = p.workers;
  return cfg;
}

BlockDist blockDistribute(int n, int parts) {
  BlockDist d;
  d.start.resize(static_cast<std::size_t>(parts));
  d.size.resize(static_cast<std::size_t>(parts));
  const int base = n / parts;
  const int rem = n % parts;
  int at = 0;
  for (int i = 0; i < parts; ++i) {
    const int sz = base + (i < rem ? 1 : 0);
    d.start[static_cast<std::size_t>(i)] = at;
    d.size[static_cast<std::size_t>(i)] = sz;
    at += sz;
  }
  return d;
}

Grid2D factor2d(int p) {
  const skel::sym::Grid2 g = skel::sym::factor2d(p);
  return {static_cast<int>(g.px), static_cast<int>(g.py)};
}

Grid3D factor3d(int p) {
  const skel::sym::Grid3 g = skel::sym::factor3d(p);
  return {static_cast<int>(g.px), static_cast<int>(g.py),
          static_cast<int>(g.pz)};
}

}  // namespace ovp::nas
