// Generic NAS kernel runner: run any kernel at any configuration and dump
// the per-process overlap reports — the day-to-day driver a performance
// analyst would use.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/lint.hpp"

#include "model/sample.hpp"
#include "nas/bt.hpp"
#include "net/fault.hpp"
#include "nas/cg.hpp"
#include "nas/ep.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "nas/lu.hpp"
#include "nas/mg.hpp"
#include "nas/sp.hpp"
#include "overlap/report_io.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/timeline.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

namespace {

constexpr util::Flag kFlags[] = {
    util::textFlag("kernel", "NAME",
                   "NAS kernel: cg, bt, lu, ft, sp, mg, ep or is (default cg)"),
    util::oneOfFlag("class", "S|A|B", "problem class (default S)"),
    util::intFlag("procs", "N", "ranks (default 4)", 1),
    util::intFlag("iterations", "N",
                  "time steps (default 0: the class default)", 0),
    util::oneOfFlag("preset", "pipelined|leavepinned|mvapich2|mv2write",
                    "MPI library protocol preset (default mvapich2)"),
    util::switchFlag("modified", "run SP's Iprobe-modified solve"),
    util::oneOfFlag("variant", "mpi|armci|armci-nb",
                    "MG communication variant (default armci-nb)"),
    util::textFlag("reports", "PREFIX",
                   "save every rank's report to PREFIX.rank<r>.ovp"),
    util::kOvprofVerify,
    util::kOvprofFault,
    util::kOvprofTrace,
    util::kOvprofTraceCapacity,
    util::kOvprofTraceWindow,
    util::kOvprofLint,
    util::kOvprofLintJson,
    util::kOvprofModel,
    util::kOvprofModelParam,
    util::kOvprofVci,
    util::kOvprofVciRails,
    util::kOvprofWorkers,
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv,
      {"nas_run",
       "Runs one NAS kernel at any configuration and prints its overlap\n"
       "bounds; the day-to-day driver a performance analyst would use.\n"
       "Tracing costs virtual time (charged per record, like the monitor's\n"
       "own overhead), so traced and untraced timings differ by design.",
       kFlags});

  nas::SpParams params;  // superset of NasParams (modified unused outside
                         // SP)
  const std::string cls = flags.getString("class", "S");
  params.cls = cls == "A" ? nas::Class::A
                          : (cls == "B" ? nas::Class::B : nas::Class::S);
  params.nranks = static_cast<int>(flags.getInt("procs", 4));
  params.iterations = static_cast<int>(flags.getInt("iterations", 0));
  params.modified = flags.getBool("modified", false);
  params.verify = flags.getBool("ovprof-verify", false);
  params.workers = static_cast<int>(flags.getInt("ovprof-workers", 1));
  const std::string fault_spec = flags.getString("ovprof-fault", "");
  if (!fault_spec.empty()) {
    if (!net::FaultModel::parse(fault_spec, params.fabric.fault)) {
      std::fprintf(stderr, "bad --ovprof-fault spec: %s\n", fault_spec.c_str());
      return 2;
    }
    std::printf("fault model: %s\n", params.fabric.fault.describe().c_str());
  }
  const std::string vci_spec = flags.getString("ovprof-vci", "");
  if (!vci_spec.empty()) {
    if (!net::VciParams::parse(vci_spec, params.fabric.vci)) {
      std::fprintf(stderr, "bad --ovprof-vci spec: %s\n", vci_spec.c_str());
      return 2;
    }
  }
  params.fabric.vci.rails =
      static_cast<int>(flags.getInt("ovprof-vci-rails", 1));
  const std::string trace_path = flags.getString("ovprof-trace", "");
  const DurationNs trace_window =
      flags.getInt("ovprof-trace-window", 1'000'000);
  const bool lint = flags.getBool("ovprof-lint", false);
  const std::string lint_json = flags.getString("ovprof-lint-json", "");
  if (!trace_path.empty() || lint) {
    params.trace.enabled = true;
    params.trace.ring_capacity = static_cast<std::size_t>(flags.getInt(
        "ovprof-trace-capacity",
        static_cast<std::int64_t>(params.trace.ring_capacity)));
  }
  const std::string preset = flags.getString("preset", "mvapich2");
  params.preset = preset == "pipelined" ? mpi::Preset::OpenMpiPipelined
                  : preset == "leavepinned"
                      ? mpi::Preset::OpenMpiLeavePinned
                  : preset == "mv2write" ? mpi::Preset::Mvapich2RdmaWrite
                                         : mpi::Preset::Mvapich2;

  const std::string kernel = flags.getString("kernel", "cg");
  nas::NasResult result;
  // A run the library cannot finish (a reliable transfer that exhausts its
  // retries on a lossy fabric) ends the job with an error, as MPI would.
  try {
    if (kernel == "cg") {
      result = nas::runCg(params);
    } else if (kernel == "bt") {
      result = nas::runBt(params);
    } else if (kernel == "lu") {
      result = nas::runLu(params);
    } else if (kernel == "ft") {
      result = nas::runFt(params);
    } else if (kernel == "sp") {
      result = nas::runSp(params);
    } else if (kernel == "ep") {
      result = nas::runEp(params);
    } else if (kernel == "is") {
      result = nas::runIs(params);
    } else if (kernel == "mg") {
      nas::MgParams mg;
      static_cast<nas::NasParams&>(mg) = params;
      const std::string variant = flags.getString("variant", "armci-nb");
      mg.variant = variant == "mpi" ? nas::MgVariant::MpiBlocking
                   : variant == "armci" ? nas::MgVariant::ArmciBlocking
                                        : nas::MgVariant::ArmciNonBlocking;
      result = nas::runMg(mg);
    } else {
      std::fprintf(stderr, "unknown kernel: %s\n", kernel.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nas_run: run failed: %s\n", e.what());
    return 1;
  }

  if (!result.error.empty()) {
    std::fprintf(stderr,
                 "nas_run: %s class %s cannot run on %d processes: %s\n",
                 kernel.c_str(), nas::className(params.cls), params.nranks,
                 result.error.c_str());
    return 2;
  }

  std::printf("%s class %s on %d processes (%s)\n", kernel.c_str(),
              nas::className(params.cls), params.nranks,
              mpi::presetName(params.preset));
  std::printf("verified:   %s\n", result.verified ? "yes" : "NO");
  std::printf("checksum:   %.12g\n", result.checksum);
  std::printf("run time:   %.3f ms (virtual)\n", toMsec(result.time));
  std::printf("MPI time:   %.3f ms per rank (mean)\n",
              toMsec(result.mpiTime()));
  const auto whole = nas::aggregateWhole(result.reports);
  std::printf("overlap:    [%.1f%%, %.1f%%] of %.3f ms data transfer "
              "(%lld transfers)\n",
              whole.minPct(), whole.maxPct(),
              toMsec(whole.data_transfer_time),
              static_cast<long long>(whole.transfers));
  std::printf("non-overlapped lower bound: %.3f ms\n",
              toMsec(whole.minNonOverlapped()));
  const overlap::FaultStats faults = nas::aggregateFaults(result.reports);
  if (faults.any()) {
    std::printf("faults:     attempts=%lld drops=%lld retransmissions=%lld "
                "timeouts=%lld dup_discards=%lld retry_exhausted=%lld\n",
                static_cast<long long>(faults.attempts),
                static_cast<long long>(faults.drops),
                static_cast<long long>(faults.retransmissions),
                static_cast<long long>(faults.timeouts),
                static_cast<long long>(faults.dup_discards),
                static_cast<long long>(faults.retry_exhausted));
  }

  if (result.trace && !trace_path.empty()) {
    const trace::Collector& tc = *result.trace;
    if (!trace::writeChromeJsonFile(tc, trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    const std::string csv_path = trace_path + ".csv";
    if (!trace::writeCsvFile(tc, csv_path)) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("trace:      %lld records -> %s (Perfetto) and %s\n",
                static_cast<long long>(tc.recordedTotal()), trace_path.c_str(),
                csv_path.c_str());
    if (tc.droppedTotal() > 0) {
      std::fprintf(stderr,
                   "warning: trace ring overflowed, %lld records dropped; "
                   "rerun with a larger --ovprof-trace-capacity\n",
                   static_cast<long long>(tc.droppedTotal()));
    }

    const auto per_rank = trace::analyzeAllWindows(tc, trace_window);
    const auto merged = trace::sumWindows(per_rank);
    // Keep the table readable: coarsen by merging adjacent windows when the
    // run spans more than ~32 of them.
    const std::size_t group =
        merged.empty() ? 1 : (merged.size() + 31) / 32;
    util::TextTable table({"window", "t [ms]", "comm [ms]", "comp [ms]",
                           "xfers", "xfer time [ms]", "min ovl %",
                           "max ovl %"});
    for (std::size_t w = 0; w < merged.size(); w += group) {
      trace::WindowStats ws;
      std::size_t hi = std::min(merged.size(), w + group);
      for (std::size_t i = w; i < hi; ++i) ws += merged[i];
      const double xt = static_cast<double>(ws.data_transfer_time);
      std::string label = std::to_string(w);
      if (group > 1) label.append("-").append(std::to_string(hi - 1));
      table.addRow(
          {label,
           util::TextTable::num(toMsec(static_cast<TimeNs>(w) * trace_window),
                                3),
           util::TextTable::num(toMsec(ws.comm_time), 3),
           util::TextTable::num(toMsec(ws.comp_time), 3),
           util::TextTable::integer(ws.transfers),
           util::TextTable::num(toMsec(ws.data_transfer_time), 3),
           util::TextTable::num(
               xt > 0 ? 100.0 * static_cast<double>(ws.min_overlap) / xt : 0.0,
               1),
           util::TextTable::num(
               xt > 0 ? 100.0 * static_cast<double>(ws.max_overlap) / xt : 0.0,
               1)});
    }
    std::printf("time-resolved overlap (%.3f ms windows, all ranks):\n",
                toMsec(trace_window));
    table.print(std::cout);

    // Reconciliation: with no drops, each rank's window columns must sum to
    // its summary-report whole-run numbers exactly (same state machine, same
    // table, exact integer attribution).
    bool reconciled = true;
    for (const trace::RankWindows& rw : per_rank) {
      if (rw.dropped > 0) continue;  // undershoots by construction
      const std::size_t r = static_cast<std::size_t>(rw.rank);
      if (r >= result.reports.size()) continue;
      const overlap::OverlapAccum& whole = result.reports[r].whole.total;
      if (rw.total.transfers != whole.transfers ||
          rw.total.bytes != whole.bytes ||
          rw.total.data_transfer_time != whole.data_transfer_time ||
          rw.total.min_overlapped != whole.min_overlapped ||
          rw.total.max_overlapped != whole.max_overlapped) {
        std::fprintf(stderr,
                     "trace reconciliation FAILED on rank %d: windows sum to "
                     "%lld xfers / %lld ns transfer / [%lld, %lld] ns overlap,"
                     " report says %lld / %lld / [%lld, %lld]\n",
                     rw.rank, static_cast<long long>(rw.total.transfers),
                     static_cast<long long>(rw.total.data_transfer_time),
                     static_cast<long long>(rw.total.min_overlapped),
                     static_cast<long long>(rw.total.max_overlapped),
                     static_cast<long long>(whole.transfers),
                     static_cast<long long>(whole.data_transfer_time),
                     static_cast<long long>(whole.min_overlapped),
                     static_cast<long long>(whole.max_overlapped));
        reconciled = false;
      }
    }
    if (!result.reports.empty()) {
      std::printf("trace reconciliation vs reports: %s\n",
                  reconciled ? "exact" : "FAILED");
      if (!reconciled) return 1;
    }

    const auto edges = trace::matchMessages(tc);
    const trace::CriticalPath cp = trace::computeCriticalPath(tc, edges);
    std::printf(
        "message edges: %zu matched (%lld late-sender, %lld late-receiver)\n",
        edges.size(), static_cast<long long>(cp.late_sender_edges),
        static_cast<long long>(cp.late_receiver_edges));
    std::printf("critical path (%zu segments):", cp.segments.size());
    for (std::size_t r = 0; r < cp.rank_share.size(); ++r) {
      if (cp.rank_share[r] == 0) continue;
      std::printf(" rank%zu=%.1f%%", r,
                  cp.end_time > 0
                      ? 100.0 * static_cast<double>(cp.rank_share[r]) /
                            static_cast<double>(cp.end_time)
                      : 0.0);
    }
    std::printf("\n");
  }

  bool lint_failed = false;
  if (lint) {
    if (!result.trace) {
      std::fprintf(stderr, "--ovprof-lint: no trace was collected\n");
      return 2;
    }
    const analysis::LintResult lr = analysis::runLint(*result.trace);
    analysis::printLintText(lr, std::cout);
    if (!lint_json.empty()) {
      std::ofstream os(lint_json, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "failed to write %s\n", lint_json.c_str());
        return 2;
      }
      analysis::writeDiagnosticsJson(lr.diagnostics, os);
      std::printf("lint json:  %s\n", lint_json.c_str());
    }
    lint_failed = !lr.clean();
  }

  const std::string reports = flags.getString("reports", "");
  if (!reports.empty()) {
    if (!overlap::ReportIo::saveAll(result.reports, reports)) {
      std::fprintf(stderr, "failed to write %s.rank*.ovp\n", reports.c_str());
      return 1;
    }
    std::printf("wrote %zu report files to %s.rank*.ovp\n",
                result.reports.size(), reports.c_str());
  }
  const std::string model_path = flags.getString("ovprof-model", "");
  if (!model_path.empty()) {
    const model::RunSample sample = model::RunSample::fromReports(
        result.reports, kernel, cls, mpi::presetName(params.preset),
        flags.getString("variant", ""), params.nranks, params.iterations,
        flags.getDouble("ovprof-model-param", 0.0));
    if (!sample.saveFile(model_path)) {
      std::fprintf(stderr, "failed to write %s\n", model_path.c_str());
      return 1;
    }
    std::printf("model sample: %s=%.6g -> %s\n", sample.param_name.c_str(),
                sample.param, model_path.c_str());
  }
  if (params.verify) {
    std::printf("verifier:   %zu diagnostic(s), %s\n",
                result.diagnostics.size(),
                analysis::clean(result.diagnostics) ? "clean" : "NOT CLEAN");
    if (!analysis::clean(result.diagnostics)) return 1;
  }
  if (lint_failed) return 1;
  return result.verified ? 0 : 1;
}
