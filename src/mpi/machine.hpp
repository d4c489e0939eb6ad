// Machine: one simulated cluster job running a message-passing program.
//
// BasicMachine<Job> is the one job runner for both libraries of the paper:
// mpi::Machine runs an MPI program, armci::ArmciMachine an ARMCI one.  It
// owns the discrete-event engine and, per run, the fabric; builds the
// library instance of every rank, runs the rank function on it, and collects
// the per-process overlap reports at finalize time (when instrumented).
// Everything the framework attaches to a rank is wired here once: the
// library's trace sink, the usage checker, the composed Monitor observer
// (stream verifier + trace collector) and the NIC tap.  So is the job-wide
// epilogue: each NIC's fault and VCI counters copied onto its rank's report,
// and the diagnostics printed.  A library contributes only its Job traits
// (MpiJob here, armci::ArmciJob): how a rank constructs it, the job-wide
// state its ranks share, and the name of its finalize call.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/stream_verifier.hpp"
#include "analysis/usage_checker.hpp"
#include "mpi/config.hpp"
#include "mpi/mpi.hpp"
#include "net/nic.hpp"
#include "overlap/report_io.hpp"
#include "sim/engine.hpp"
#include "trace/collector.hpp"
#include "trace/net_tap.hpp"

namespace ovp::mpi {

struct JobConfig {
  int nranks = 2;
  net::FabricParams fabric;
  MpiConfig mpi;
  trace::CollectorConfig trace;
  /// Engine worker threads (conservative parallel mode; results are
  /// bit-identical at any value, fault injection included).
  int workers = 1;
};

/// The MPI library's part of a job (see BasicMachine).
struct MpiJob {
  using Library = Mpi;
  using Config = JobConfig;
  /// MPI ranks share nothing but the fabric.
  struct Shared {};
  static constexpr std::string_view kFinalize = "MPI_Finalize";

  static const MpiConfig& library(const JobConfig& c) { return c.mpi; }
  static Shared share(int /*nranks*/) { return {}; }
  static Mpi make(sim::Context& ctx, net::Fabric& fabric, const JobConfig& c,
                  const Shared& /*shared*/) {
    return Mpi(ctx, fabric, c.mpi);
  }
};

/// The NIC counters a rank's report carries: the rank's fault counters on
/// a lossy fabric and its per-(channel, size-class) VCI counters on a
/// multi-VCI one.  A block whose layer is off stays empty.  Counters are
/// cumulative over the fabric's life; a campaign, whose ranks run job after
/// job on one fabric, reports the difference of two snapshots.
struct NicCounters {
  overlap::FaultStats faults;
  overlap::VciStats vci;
};
[[nodiscard]] NicCounters nicCounters(net::Fabric& fabric, Rank rank);

namespace detail {

/// The job-wide epilogue: copies each NIC's counters (nicCounters) onto its
/// rank's report and prints the diagnostics to stderr in rank order.
void finishJob(net::Fabric& fabric, std::vector<overlap::Report>& reports,
               std::vector<analysis::Diagnostic>& diagnostics);

}  // namespace detail

template <class Job>
class BasicMachine {
 public:
  using Library = typename Job::Library;
  using Config = typename Job::Config;

  explicit BasicMachine(Config cfg) : cfg_(std::move(cfg)) {}

  /// Runs `rankMain` on every rank; returns when the job completes.  For
  /// instrumented jobs each rank's report is finalized after rankMain
  /// returns (the MPI_Finalize / ARMCI_Finalize analog) and kept for
  /// inspection.
  void run(const std::function<void(Library&)>& rankMain);

  /// Virtual time at which the job finished.
  [[nodiscard]] TimeNs finishTime() const { return engine_.finishTime(); }

  /// Per-rank reports of the last run (empty when not instrumented).
  [[nodiscard]] const std::vector<overlap::Report>& reports() const {
    return reports_;
  }

  /// Analysis-layer findings of the last run, all ranks, in rank order
  /// (empty unless the library config's verify).  Also printed to stderr
  /// at end of run.
  [[nodiscard]] const std::vector<analysis::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

  /// Writes each rank's report of the last run to "<prefix>.rank<N>.ovp"
  /// in the exact (reloadable) format — the per-process output files of
  /// the paper's Fig. 2.  Returns false if any file could not be written.
  [[nodiscard]] bool writeReports(const std::string& prefix) const {
    return overlap::ReportIo::saveAll(reports_, prefix);
  }

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Trace collector of the last run (null unless cfg.trace.enabled).
  /// Shared so results can outlive the Machine.
  [[nodiscard]] const std::shared_ptr<trace::Collector>& traceCollector()
      const {
    return trace_;
  }

 private:
  Config cfg_;
  sim::Engine engine_;
  std::vector<overlap::Report> reports_;
  std::vector<analysis::Diagnostic> diagnostics_;
  std::shared_ptr<trace::Collector> trace_;
};

template <class Job>
void BasicMachine<Job>::run(const std::function<void(Library&)>& rankMain) {
  net::Fabric fabric(engine_, cfg_.fabric, cfg_.nranks);
  engine_.setWorkers(cfg_.workers);
  typename Job::Shared shared = Job::share(cfg_.nranks);
  reports_.assign(Job::library(cfg_).instrument
                      ? static_cast<std::size_t>(cfg_.nranks)
                      : 0,
                  overlap::Report{});
  diagnostics_.clear();
  trace_.reset();
  std::unique_ptr<trace::NetTap> tap;
  if (cfg_.trace.enabled) {
    trace_ = std::make_shared<trace::Collector>(cfg_.trace, cfg_.nranks);
    // The analysis pass replays bounds with the table the rank monitors
    // will use.
    trace_->setTable(
        monitorTable(Job::library(cfg_).monitor.table, cfg_.fabric));
    tap = std::make_unique<trace::NetTap>(*trace_);
    fabric.setObserver(tap.get());
  }
  std::mutex reports_mu;
  // std::function heap-allocates this closure, and IS's virtual time
  // depends on where malloc places later buffers (ROADMAP item 1): at
  // `this` plus four references it takes a 48-byte malloc chunk, one more
  // capture makes it 64 and moves IS B/16.  Read the library config through
  // cfg_ inside, never through a local.
  const auto rank_main = [this, &fabric, &shared, &rankMain,
                          &reports_mu](sim::Context& ctx) {
    Library lib = Job::make(ctx, fabric, cfg_, shared);
    if (trace_) lib.setTraceSink(trace_.get());
    std::unique_ptr<analysis::StreamVerifier> verifier;
    std::unique_ptr<analysis::UsageChecker> checker;
    if (Job::library(cfg_).verify) {
      if (lib.monitor() != nullptr) {
        verifier = std::make_unique<analysis::StreamVerifier>(ctx.rank());
      }
      checker = std::make_unique<analysis::UsageChecker>(ctx.rank());
      checker->setClock([cx = &ctx]() { return cx->now(); });
      lib.setUsageChecker(checker.get());
    }
    if (overlap::Monitor* mon = lib.monitor();
        mon != nullptr && (verifier || trace_)) {
      // One composed observer: the verifier and the trace collector both
      // see the exact drain-time stream.  Only the collector does per-event
      // work that costs virtual time.
      analysis::StreamVerifier* v = verifier.get();
      trace::Collector* tc = trace_.get();
      const Rank r = ctx.rank();
      mon->setEventObserver(
          [mon, v, tc, r](const overlap::Event& e) {
            if (v != nullptr) v->consume(e);
            if (tc != nullptr) {
              if (e.type == overlap::EventType::SectionBegin) {
                tc->noteSectionName(
                    r, e.id,
                    mon->sectionName(static_cast<overlap::SectionId>(e.id)));
              }
              tc->onMonitorEvent(r, e);
            }
          },
          trace_ ? trace::kRecordCost : 0);
    }
    rankMain(lib);
    if (lib.instrumented()) {
      const overlap::Report& r = lib.finalizeReport();
      // Rank threads never run concurrently, but guard for clarity.
      std::lock_guard<std::mutex> lock(reports_mu);
      reports_[static_cast<std::size_t>(ctx.rank())] = r;
    }
    // Same instant finalizeReport closed the books; the trace analysis
    // finalizes each rank's replay at exactly this time.
    if (trace_) trace_->setEndTime(ctx.rank(), ctx.now());
    if (checker) checker->onFinalize(Job::kFinalize);
    if (verifier) {
      // finalizeReport drained the queue, so the verifier saw the whole
      // stream; reconcile against the monitor's own event count.
      verifier->finish(lib.monitor() != nullptr ? lib.monitor()->eventsLogged()
                                                : -1);
    }
    if (verifier || checker) {
      std::lock_guard<std::mutex> lock(reports_mu);
      if (verifier) {
        for (const auto& d : verifier->diagnostics()) diagnostics_.push_back(d);
      }
      if (checker) {
        for (const auto& d : checker->diagnostics()) diagnostics_.push_back(d);
      }
    }
  };
  static_assert(sizeof(rank_main) <= 40,
                "the rank closure left its 48-byte malloc chunk");
  engine_.run(cfg_.nranks, rank_main);
  detail::finishJob(fabric, reports_, diagnostics_);
}

using Machine = BasicMachine<MpiJob>;
extern template class BasicMachine<MpiJob>;

}  // namespace ovp::mpi
