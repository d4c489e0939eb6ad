// Paper Fig. 18: total MPI time of NAS SP, original vs Iprobe-modified,
// classes A and B — the bottom line of the tuning exercise.  The paper's
// best improvement was ~23% (class B, 4 processes); the modified version
// must win in every configuration.
#include <iostream>

#include "microbench.hpp"
#include "nas/sp.hpp"
#include "nas_figures.hpp"
#include "util/table.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  const char* const about =
      "NAS SP mean per-rank MPI time, original vs modified.";
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv, {"fig18_sp_mpi_time", about, bench::kNasFigureFlags});
  bench::printHeader("fig18_sp_mpi_time", about);
  util::TextTable table({"class", "procs", "orig_mpi_ms", "mod_mpi_ms",
                         "improvement_pct"});
  for (const nas::Class cls : {nas::Class::A, nas::Class::B}) {
    for (const int p : {4, 9, 16}) {
      nas::SpParams params;
      params.cls = cls;
      params.nranks = p;
      params.preset = mpi::Preset::Mvapich2;
      params.iterations = static_cast<int>(flags.getInt("iterations", 0));
      const auto orig = nas::runSp(params);
      params.modified = true;
      const auto mod = nas::runSp(params);
      const double o = toMsec(orig.mpiTime());
      const double m = toMsec(mod.mpiTime());
      table.addRow({nas::className(cls), util::TextTable::integer(p),
                    util::TextTable::num(o, 2), util::TextTable::num(m, 2),
                    util::TextTable::num(100.0 * (o - m) / o, 1)});
    }
  }
  table.print(std::cout, flags.getBool("csv", false));
  return 0;
}
