#include "mpi/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace ovp::mpi {

overlap::XferTimeTable analyticTable(const net::FabricParams& params) {
  overlap::XferTimeTable table;
  for (Bytes size = 8; size <= 16 * 1024 * 1024; size *= 2) {
    table.add(size, params.unloadedTransfer(size));
  }
  return table;
}

namespace {

/// Copies one NIC's per-(channel, size-class) wire counters into the report
/// form, deriving the LogGP o_send / o_recv estimates from the fabric's
/// host-side post/poll costs (the NIC itself never spends host time).
overlap::VciStats vciStatsFor(const net::Nic& nic,
                              const net::FabricParams& p) {
  overlap::VciStats out;
  out.channels = p.vci.channels;
  out.class_bounds.assign(p.vci.class_bounds.begin(),
                          p.vci.class_bounds.end());
  const std::vector<net::Nic::VciCounters>& counters = nic.vciCounters();
  out.rows.resize(counters.size());
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const net::Nic::VciCounters& c = counters[i];
    overlap::VciChannelClass& row = out.rows[i];
    row.posts = c.posts;
    row.deliveries = c.deliveries;
    row.bytes = c.bytes;
    row.o_send = c.posts * p.post_overhead;
    row.o_recv = c.deliveries * p.cq_poll_cost;
    row.gap = c.gap;
    row.link_wait = c.link_wait;
    row.incast_wait = c.incast_wait;
  }
  return out;
}

}  // namespace

NicCounters nicCounters(net::Fabric& fabric, Rank rank) {
  NicCounters out;
  const net::Nic& nic = fabric.nic(rank);
  if (fabric.faultEnabled()) out.faults.assignFrom(nic.faultCounters());
  if (fabric.params().vci.enabled()) {
    out.vci = vciStatsFor(nic, fabric.params());
  }
  return out;
}

void detail::finishJob(net::Fabric& fabric,
                       std::vector<overlap::Report>& reports,
                       overlap::FaultStats& fault_totals,
                       std::vector<analysis::Diagnostic>& diagnostics) {
  fault_totals = overlap::FaultStats{};
  if (fabric.faultEnabled()) fault_totals.assignFrom(fabric.faultTotals());
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
