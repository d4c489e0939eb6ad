#include "mpi/machine.hpp"

#include <algorithm>
#include <cstdio>

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

void detail::finishJob(net::Fabric& fabric,
                       std::vector<overlap::Report>& reports,
                       overlap::FaultStats& fault_totals,
                       std::vector<analysis::Diagnostic>& diagnostics) {
  const net::FabricParams& params = fabric.params();
  fault_totals = overlap::FaultStats{};
  if (fabric.faultEnabled()) {
    for (overlap::Report& r : reports) {
      r.faults.assignFrom(fabric.nic(r.rank).faultCounters());
    }
    fault_totals.assignFrom(fabric.faultTotals());
  }
  if (params.vci.enabled()) {
    for (overlap::Report& r : reports) {
      r.vci = vciStatsFor(fabric.nic(r.rank), params);
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
