#include "mpi/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace ovp::mpi {

namespace {

/// One NIC's per-(channel, size-class) rows in report form, with the LogGP
/// o_send / o_recv estimates derived from the fabric's host-side post/poll
/// costs (the NIC itself never spends host time).
overlap::VciStats vciStatsFor(const net::Nic& nic,
                              const net::FabricParams& p) {
  overlap::VciStats out;
  out.channels = p.vci.channels;
  out.classes = p.vci.classes;
  out.rows = nic.vciCounters();
  for (overlap::VciChannelClass& row : out.rows) {
    row.o_send = row.posts * p.post_overhead;
    row.o_recv = row.deliveries * p.cq_poll_cost;
  }
  return out;
}

}  // namespace

NicCounters nicCounters(net::Fabric& fabric, Rank rank) {
  NicCounters out;
  const net::Nic& nic = fabric.nic(rank);
  if (fabric.faultEnabled()) out.faults = nic.faultCounters();
  if (fabric.params().vci.enabled()) {
    out.vci = vciStatsFor(nic, fabric.params());
  }
  return out;
}

void detail::finishJob(net::Fabric& fabric,
                       std::vector<overlap::Report>& reports,
                       std::vector<analysis::Diagnostic>& diagnostics) {
  if (fabric.faultEnabled() || fabric.params().vci.enabled()) {
    for (overlap::Report& r : reports) {
      NicCounters c = nicCounters(fabric, r.rank);
      r.faults = c.faults;
      r.vci = std::move(c.vci);
    }
  }
  if (!diagnostics.empty()) {
    std::stable_sort(diagnostics.begin(), diagnostics.end(),
                     [](const analysis::Diagnostic& a,
                        const analysis::Diagnostic& b) { return a.rank < b.rank; });
    for (const analysis::Diagnostic& d : diagnostics) {
      std::fprintf(stderr, "ovprof-verify: %s\n", d.toString().c_str());
    }
  }
}

template class BasicMachine<MpiJob>;

}  // namespace ovp::mpi
