#include "mpi/library.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "mpi/config.hpp"
#include "trace/collector.hpp"

namespace ovp::mpi {

overlap::XferTimeTable analyticTable(const net::FabricParams& params) {
  overlap::XferTimeTable table;
  for (Bytes size = 8; size <= 16 * 1024 * 1024; size *= 2) {
    table.add(size, params.unloadedTransfer(size));
  }
  return table;
}

overlap::XferTimeTable monitorTable(overlap::XferTimeTable table,
                                    const net::FabricParams& params) {
  if (table.empty()) table = analyticTable(params);
  return table;
}

template <class Config>
LibraryCore<Config>::LibraryCore(sim::Context& ctx, net::Fabric& fabric,
                                 const Config& cfg, std::string_view name,
                                 std::string_view section_end,
                                 DurationNs call_overhead)
    : ctx_(ctx),
      fabric_(fabric),
      nic_(fabric.nic(ctx.rank())),
      cfg_(cfg),
      name_(name),
      section_end_(section_end),
      call_overhead_(call_overhead) {}

template <class Config>
LibraryCore<Config>::~LibraryCore() = default;

template <class Config>
void LibraryCore<Config>::createMonitor(Rank rank) {
  if (!cfg_.instrument) return;
  overlap::MonitorConfig mc = cfg_.monitor;
  mc.table = monitorTable(std::move(mc.table), fabric_.params());
  monitor_ = std::make_unique<overlap::Monitor>(std::move(mc), rank);
}

// ---------------------------------------------------------------- stamps

template <class Config>
TransferId LibraryCore<Config>::stampXferBegin(Bytes size) {
  if (!monitor_ || size <= 0) return kInvalidTransfer;
  const auto [id, cost] = monitor_->xferBegin(ctx_.now(), size);
  ctx_.advance(cost);
  return id;
}

template <class Config>
void LibraryCore<Config>::stampXferEnd(TransferId id) {
  if (!monitor_ || id == kInvalidTransfer) return;
  ctx_.advance(monitor_->xferEnd(ctx_.now(), id));
}

template <class Config>
void LibraryCore<Config>::stampXferEndUnmatched(Bytes size) {
  if (!monitor_ || size <= 0) return;
  ctx_.advance(monitor_->xferEndUnmatched(ctx_.now(), size));
}

template <class Config>
void LibraryCore<Config>::pushRecord(trace::Record rec) {
  if (trace_sink_ == nullptr) return;
  rec.rank = ctx_.rank();
  rec.time = ctx_.now();
  trace_sink_->push(ctx_.rank(), rec);
  ctx_.advance(trace::kRecordCost);
}

// -------------------------------------------------------------- progress

template <class Config>
void LibraryCore<Config>::progress() {
  const net::FabricParams& p = fabric_.params();
  // Batched CQ drain: one call moves the whole backlog, each entry is still
  // charged its poll cost, and completions deposited while handling the
  // batch (handlers advance virtual time) are picked up by the next drain —
  // same FIFO handling order and virtual-time cost as polling one by one.
  std::vector<net::Completion> batch = std::move(drained_cq_);
  batch.clear();
  while (nic_.drainCompletions(batch) > 0) {
    for (const net::Completion& c : batch) {
      ctx_.advance(p.cq_poll_cost);
      if (c.status != net::WorkStatus::Ok) {
        // Reliability-protocol retry exhaustion (fault model).  A real
        // library on a broken fabric aborts the job; surface it as a hard
        // error rather than hanging in progressUntil.
        throw std::runtime_error(std::string(name_) + ": work request " +
                                 std::to_string(c.id) +
                                 " failed: NIC retry exhausted");
      }
      handleCompletion(c);
    }
    batch.clear();
  }
  drained_cq_ = std::move(batch);
  net::Packet pkt;
  while (nic_.pollRecv(pkt)) {
    ctx_.advance(p.cq_poll_cost);
    handlePacket(pkt);
  }
  ctx_.advance(p.cq_poll_cost);  // the final, empty poll
}

template <class Config>
void LibraryCore<Config>::progressUntil(const std::function<bool()>& pred) {
  progress();
  while (!pred()) {
    ctx_.sleep();  // resumes on the next NIC deposit for this rank
    progress();
  }
}

// ----------------------------------------------------- instrumentation

template <class Config>
void LibraryCore<Config>::sectionBegin(std::string_view name) {
  if (checker_ != nullptr) checker_->onSectionBegin();
  if (monitor_) ctx_.advance(monitor_->sectionBegin(ctx_.now(), name));
}

template <class Config>
void LibraryCore<Config>::sectionEnd() {
  if (checker_ != nullptr) checker_->onSectionEnd(section_end_);
  if (monitor_) ctx_.advance(monitor_->sectionEnd(ctx_.now()));
}

template <class Config>
void LibraryCore<Config>::setMonitorEnabled(bool on) {
  if (monitor_) ctx_.advance(monitor_->setEnabled(ctx_.now(), on));
}

template <class Config>
const overlap::Report& LibraryCore<Config>::finalizeReport() {
  assert(monitor_ && "finalizeReport requires an instrumented run");
  return monitor_->report(ctx_.now());
}

// The two shells: ARMCI's (ArmciConfig is LibraryConfig) and MPI's.
template class LibraryCore<LibraryConfig>;
template class LibraryCore<MpiConfig>;

}  // namespace ovp::mpi
