#include "nas_figures.hpp"

#include <cstdio>
#include <iostream>

namespace ovp::bench {

overlap::OverlapAccum aggregateSizeClass(
    const std::vector<overlap::Report>& reports, std::size_t cls) {
  overlap::OverlapAccum acc;
  for (const auto& r : reports) {
    if (cls < r.whole.by_class.size()) acc += r.whole.by_class[cls];
  }
  return acc;
}

void runCharacterization(const char* figure, const char* description,
                         const KernelFn& kernel, mpi::Preset preset,
                         const std::vector<nas::Class>& classes,
                         const std::vector<int>& rank_counts, int argc,
                         char** argv) {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv, {figure, description, kNasFigureFlags});
  std::printf("=== %s ===\n%s\nlibrary: %s\n\n", figure, description,
              mpi::presetName(preset));
  util::TextTable table({"class", "procs", "verified", "min_pct", "max_pct",
                         "short_max_pct", "long_max_pct", "mpi_time_ms",
                         "run_time_ms"});
  for (const nas::Class cls : classes) {
    for (const int p : rank_counts) {
      nas::NasParams params;
      params.cls = cls;
      params.nranks = p;
      params.preset = preset;
      params.iterations = static_cast<int>(flags.getInt("iterations", 0));
      const nas::NasResult r = kernel(params);
      const auto short_cls = aggregateSizeClass(r.reports, 0);
      const auto long_cls = aggregateSizeClass(r.reports, 1);
      table.addRow({nas::className(cls), util::TextTable::integer(p),
                    r.verified ? "yes" : "NO",
                    util::TextTable::num(r.minPct(), 1),
                    util::TextTable::num(r.maxPct(), 1),
                    util::TextTable::num(short_cls.maxPct(), 1),
                    util::TextTable::num(long_cls.maxPct(), 1),
                    util::TextTable::num(toMsec(r.mpiTime()), 2),
                    util::TextTable::num(toMsec(r.time), 2)});
    }
  }
  table.print(std::cout, flags.getBool("csv", false));
}

}  // namespace ovp::bench
