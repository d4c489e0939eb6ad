// The per-rank library shell both simulated libraries are built on.
//
// The paper places one framework inside three libraries (Open MPI,
// MVAPICH2, ARMCI; Sec. 1).  Each library decides where its CALL and XFER
// events fall, but stamping, charging, collecting and finalizing an event
// work the same way in all of them.  LibraryCore is that common part,
// written once: the stored config and the Monitor built from it (with the
// rule that an empty transfer-time table means the analytic one), the call
// bracket, the XFER stamps, sections and finalize, the trace-record push,
// the attached observers (trace sink and usage checker) and the polling
// progress loop.  mpi::Mpi and armci::Armci derive from it; each supplies
// its call overhead, its names, and the two handlers progress() hands
// completions and packets to.  Protocol code (matching, rendezvous, RMA,
// ARMCI's control channel) stays in the library.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "analysis/usage_checker.hpp"
#include "net/nic.hpp"
#include "net/params.hpp"
#include "overlap/monitor.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"
#include "util/types.hpp"

namespace ovp::trace {
class Collector;
}  // namespace ovp::trace

namespace ovp::mpi {

/// What the shell and the job runner read of a library's configuration.
struct LibraryConfig {
  /// Whether the overlap instrumentation framework is compiled in for this
  /// run (Fig. 20 compares instrumented vs uninstrumented virtual times).
  bool instrument = true;

  /// Attach the analysis layer (StreamVerifier on the monitor's event
  /// stream + UsageChecker on the library API) to every rank.  Costs host
  /// time only, never virtual time; diagnostics are collected by the job
  /// runner.  Enable from the command line with --ovprof-verify.
  bool verify = false;

  /// Monitor settings; `monitor.table` should be loaded from a calibration
  /// file.  If left empty, the fabric's analytic table is used (see
  /// monitorTable).
  overlap::MonitorConfig monitor;
};

/// Builds a transfer-time table from the analytic fabric model: the
/// stand-in for the paper's a-priori perf_main measurement when no
/// calibration file is supplied.
[[nodiscard]] overlap::XferTimeTable analyticTable(
    const net::FabricParams& params);

/// The table a monitor runs with: `table` as configured, or the analytic
/// one when it is empty (the paper reads perf_main's table in MPI_Init).
[[nodiscard]] overlap::XferTimeTable monitorTable(
    overlap::XferTimeTable table, const net::FabricParams& params);

/// The shell over a library whose configuration is `Config` (a
/// LibraryConfig, or a type extending it).
template <class Config>
class LibraryCore {
 public:
  LibraryCore(const LibraryCore&) = delete;
  LibraryCore& operator=(const LibraryCore&) = delete;

  [[nodiscard]] TimeNs now() const { return ctx_.now(); }

  /// Models user computation of duration d (not a library call).
  void compute(DurationNs d) { ctx_.compute(d); }

  // ---- instrumentation control (application-level, paper Sec. 2.3) ----
  void sectionBegin(std::string_view name);
  void sectionEnd();
  void setMonitorEnabled(bool on);
  [[nodiscard]] bool instrumented() const { return monitor_ != nullptr; }

  /// Finalizes instrumentation and returns the per-process report.
  /// Must only be called when instrumented; idempotent.
  const overlap::Report& finalizeReport();

  /// The per-process monitor (null when not instrumented).  Exposed so the
  /// analysis layer can attach a StreamVerifier as its event observer.
  [[nodiscard]] overlap::Monitor* monitor() { return monitor_.get(); }
  [[nodiscard]] const overlap::Monitor* monitor() const {
    return monitor_.get();
  }

  /// Attaches the job's trace collector (not owned; may be null).  With a
  /// sink installed the library pushes its own records (see pushRecord).
  void setTraceSink(trace::Collector* sink) { trace_sink_ = sink; }

  /// Attaches a library-misuse checker (not owned; may be null).  The
  /// library notifies it of request lifecycle and section marker calls.
  void setUsageChecker(analysis::UsageChecker* checker) { checker_ = checker; }

 protected:
  /// Stores the one copy of `cfg`.  `name` prefixes the library's error
  /// messages; `section_end` names its section-end call in usage
  /// diagnostics; `call_overhead` is the fixed host cost of entering any
  /// of its calls (argument checking, queue locking...).
  LibraryCore(sim::Context& ctx, net::Fabric& fabric, const Config& cfg,
              std::string_view name, std::string_view section_end,
              DurationNs call_overhead);
  virtual ~LibraryCore();

  /// Creates the Monitor when cfg_.instrument, from one copy of
  /// cfg_.monitor with its table resolved by monitorTable.  A library calls
  /// this in its constructor body, after every member is built: IS's
  /// virtual time depends on where malloc places later buffers (ROADMAP
  /// item 1), so the order of a rank's allocations is part of the output.
  void createMonitor(Rank rank);

  /// RAII bracket for every public entry point: stamps CALL_ENTER, charges
  /// the call overhead, and stamps CALL_EXIT on the way out.  Nesting is
  /// fine: the Monitor acts only at the outermost level.
  class CallGuard {
   public:
    explicit CallGuard(LibraryCore& lib) : lib_(lib) {
      if (lib_.monitor_) {
        lib_.ctx_.advance(lib_.monitor_->callEnter(lib_.ctx_.now()));
      }
      lib_.ctx_.advance(lib_.call_overhead_);
    }
    ~CallGuard() {
      if (lib_.monitor_) {
        lib_.ctx_.advance(lib_.monitor_->callExit(lib_.ctx_.now()));
      }
    }
    CallGuard(const CallGuard&) = delete;
    CallGuard& operator=(const CallGuard&) = delete;

   private:
    LibraryCore& lib_;
  };

  // XFER stamps, at the post of a work request carrying user bytes and at
  // the poll that detects its completion.  No-ops when not instrumented.
  /// Returns the new transfer's id (kInvalidTransfer for 0 bytes).
  [[nodiscard]] TransferId stampXferBegin(Bytes size);
  void stampXferEnd(TransferId id);
  /// An XFER_END whose initiation was invisible to this process.
  void stampXferEndUnmatched(Bytes size);

  /// Pushes one library-origin record to the trace sink, stamped with this
  /// rank and the current time, and charges trace::kRecordCost exactly where
  /// a real tool's callback would run.  No-op without a sink.
  void pushRecord(trace::Record rec);

  /// One sweep of the polling progress engine: drains the completion queue
  /// in batches, then the receive queue, charging the poll cost per entry,
  /// and ends with one empty poll.  A failed work request aborts the job;
  /// every other entry goes to the library's handler.
  void progress();
  /// Blocks until pred() is true, polling progress and sleeping between
  /// NIC events.
  void progressUntil(const std::function<bool()>& pred);
  /// The library's protocol handlers, called by progress().  handlePacket
  /// may move the packet out.
  virtual void handleCompletion(const net::Completion& c) = 0;
  virtual void handlePacket(net::Packet& pkt) = 0;

  sim::Context& ctx_;
  net::Fabric& fabric_;
  net::Nic& nic_;
  Config cfg_;
  std::unique_ptr<overlap::Monitor> monitor_;
  analysis::UsageChecker* checker_ = nullptr;
  trace::Collector* trace_sink_ = nullptr;

 private:
  std::string_view name_;
  std::string_view section_end_;
  DurationNs call_overhead_;
  /// Scratch buffer for progress()'s batched CQ drain (kept for capacity).
  std::vector<net::Completion> drained_cq_;
};

}  // namespace ovp::mpi
