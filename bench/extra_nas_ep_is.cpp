// Extension beyond the paper's figures: EP and IS characterization.
//
// The paper omits EP ("performs minimal communication") and IS ("exhibits
// similar overlap behavior to FT") from its plots.  This driver measures
// both claims with the same instrumentation: EP's MPI share of run time is
// negligible, and IS's long-message overlap is as poor as FT's because its
// key redistribution happens entirely inside all-to-all calls.
#include <cstdio>
#include <iostream>

#include "nas/ep.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

constexpr util::Flag kFlags[] = {
    util::switchFlag("csv", "print CSV instead of a table"),
};

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv,
      {"extra_nas_ep_is", "EP and IS overlap, with FT for comparison.",
       kFlags});
  std::printf("=== extra_nas_ep_is ===\n"
              "EP and IS under the overlap framework (the kernels the paper "
              "characterized but did not plot).\n\n");
  util::TextTable table({"kernel", "class", "procs", "verified", "min_pct",
                         "max_pct", "mpi_share_pct", "transfers"});
  for (const nas::Class cls : {nas::Class::A, nas::Class::B}) {
    for (const int p : {4, 8, 16}) {
      nas::NasParams params;
      params.cls = cls;
      params.nranks = p;
      params.preset = mpi::Preset::Mvapich2;
      struct Row {
        const char* name;
        nas::NasResult r;
      };
      const Row rows[] = {
          {"EP", nas::runEp(params)},
          {"IS", nas::runIs(params)},
          {"FT", nas::runFt(params)},
      };
      for (const Row& row : rows) {
        const auto whole = nas::aggregateWhole(row.r.reports);
        table.addRow(
            {row.name, nas::className(cls), util::TextTable::integer(p),
             row.r.verified ? "yes" : "NO",
             util::TextTable::num(row.r.minPct(), 1),
             util::TextTable::num(row.r.maxPct(), 1),
             util::TextTable::num(100.0 * static_cast<double>(row.r.mpiTime()) /
                                      static_cast<double>(row.r.time),
                                  2),
             util::TextTable::integer(whole.transfers)});
      }
    }
  }
  table.print(std::cout, flags.getBool("csv", false));
  return 0;
}
