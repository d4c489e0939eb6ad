// Paper Fig. 19: NAS MG with ARMCI, blocking vs non-blocking one-sided
// updates (class B).  The non-blocking version posts its ghost updates
// before the interior computation and completes them afterwards; once
// posted, the NIC owns the transfer, so its maximum overlap is high while
// the blocking version's is zero.  The MPI version is included for
// reference (the study in the paper's ref. [29]).
#include <iostream>

#include "microbench.hpp"
#include "nas/mg.hpp"
#include "nas_figures.hpp"
#include "util/table.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  const char* const about =
      "NAS MG overlap: ARMCI blocking vs non-blocking (class B).";
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv, {"fig19_armci_mg", about, bench::kNasFigureFlags});
  bench::printHeader("fig19_armci_mg", about);
  util::TextTable table({"class", "procs", "variant", "verified", "min_pct",
                         "max_pct", "run_time_ms"});
  for (const int p : {4, 8, 16}) {
    for (const nas::MgVariant v :
         {nas::MgVariant::ArmciBlocking, nas::MgVariant::ArmciNonBlocking,
          nas::MgVariant::MpiBlocking}) {
      nas::MgParams params;
      params.cls = nas::Class::B;
      params.nranks = p;
      params.variant = v;
      params.iterations = static_cast<int>(flags.getInt("iterations", 0));
      const auto r = nas::runMg(params);
      table.addRow({nas::className(params.cls), util::TextTable::integer(p),
                    nas::mgVariantName(v), r.verified ? "yes" : "NO",
                    util::TextTable::num(r.minPct(), 1),
                    util::TextTable::num(r.maxPct(), 1),
                    util::TextTable::num(toMsec(r.time), 2)});
    }
  }
  table.print(std::cout, flags.getBool("csv", false));
  return 0;
}
