// Paper Fig. 20: instrumentation overhead across the NAS suite —
// instrumented vs uninstrumented run time of the same job.  The paper
// measured < 0.9% in all cases; our scaled-down problems have a denser
// library-call rate per unit virtual time, so slightly higher relative
// overheads are expected at class A.
#include <cstdio>
#include <iostream>

#include "nas/bt.hpp"
#include "nas/cg.hpp"
#include "nas/ep.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "nas/lu.hpp"
#include "nas/mg.hpp"
#include "nas/sp.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

namespace {

template <typename RunFn, typename Params>
void row(util::TextTable& table, const char* name, const RunFn& run,
         Params params) {
  params.instrument = true;
  const auto inst = run(params);
  params.instrument = false;
  const auto plain = run(params);
  const double overhead =
      100.0 * static_cast<double>(inst.time - plain.time) /
      static_cast<double>(plain.time);
  table.addRow({name, util::TextTable::num(toMsec(plain.time), 2),
                util::TextTable::num(toMsec(inst.time), 2),
                util::TextTable::num(overhead, 3)});
}

constexpr util::Flag kFlags[] = {
    util::intFlag("procs", "N", "ranks per kernel run (default 4)", 1),
    util::switchFlag("csv", "print CSV instead of a table"),
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv,
      {"fig20_overhead", "Instrumentation overhead across the NAS suite.",
       kFlags});
  const int p = static_cast<int>(flags.getInt("procs", 4));
  std::printf("=== fig20_overhead ===\n"
              "Instrumented vs uninstrumented virtual run time, class A, "
              "%d processes.\n\n", p);
  util::TextTable table(
      {"benchmark", "plain_ms", "instrumented_ms", "overhead_pct"});
  nas::NasParams base;
  base.cls = nas::Class::A;
  base.nranks = p;
  {
    auto params = base;
    params.preset = mpi::Preset::OpenMpiPipelined;
    row(table, "BT", [](const nas::NasParams& q) { return nas::runBt(q); },
        params);
    row(table, "CG", [](const nas::NasParams& q) { return nas::runCg(q); },
        params);
  }
  {
    auto params = base;
    params.preset = mpi::Preset::Mvapich2;
    row(table, "LU", [](const nas::NasParams& q) { return nas::runLu(q); },
        params);
    row(table, "FT", [](const nas::NasParams& q) { return nas::runFt(q); },
        params);
    row(table, "EP", [](const nas::NasParams& q) { return nas::runEp(q); },
        params);
    row(table, "IS", [](const nas::NasParams& q) { return nas::runIs(q); },
        params);
    nas::SpParams sp;
    static_cast<nas::NasParams&>(sp) = params;
    row(table, "SP", [](const nas::SpParams& q) { return nas::runSp(q); },
        sp);
  }
  {
    nas::MgParams mg;
    static_cast<nas::NasParams&>(mg) = base;
    mg.variant = nas::MgVariant::ArmciNonBlocking;
    row(table, "MG(ARMCI)",
        [](const nas::MgParams& q) { return nas::runMg(q); }, mg);
  }
  table.print(std::cout, flags.getBool("csv", false));
  return 0;
}
