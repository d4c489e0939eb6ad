// ovprof_model: multi-run performance-model fitting and what-if prediction.
//
// Consumes model sample files written by instrumented runs
// (--ovprof-model=FILE on nas_run, or model::RunSample::saveFile) and, for
// what-if replay, the lossless CSV trace (--ovprof-trace=FILE produces
// FILE.csv).  Subcommands fit, predict, eval, whatif and costs each
// declare their flags below; `ovprof_model --help` prints them.
//
// predict and eval refit from the sample files in-process rather than
// parsing a fit JSON artifact: fitting is milliseconds, and it keeps this
// tool free of a JSON parser the repo otherwise doesn't need.
//
// Exit code: 0 success (eval: every gated metric within tolerance), 1 eval
// gate miss, 2 tool error (unreadable input, bad flags, bad subcommand).
// Output is deterministic: the same input bytes always produce the same
// output bytes — no wall-clock, no environment, fixed float formatting.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "model/model_set.hpp"
#include "model/pattern_cost.hpp"
#include "model/predict.hpp"
#include "model/sample.hpp"
#include "tool_main.hpp"
#include "trace/reader.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace ovp;

namespace {

/// Opens --out=FILE or falls back to stdout.
std::ostream* openOut(const util::Flags& flags, std::ofstream& file) {
  return tool::openOutput("ovprof_model", flags.getString("out", ""), file);
}

bool loadSweep(const std::vector<std::string>& paths, model::SampleSet& set) {
  std::string error;
  if (paths.empty()) {
    std::fprintf(stderr, "ovprof_model: no sample files given\n");
    return false;
  }
  if (!set.loadFiles(paths, &error)) {
    std::fprintf(stderr, "ovprof_model: %s\n", error.c_str());
    return false;
  }
  std::string why;
  if (!set.consistent(&why)) {
    std::fprintf(stderr,
                 "ovprof_model: samples disagree on %s — a sweep must vary "
                 "only the parameter\n",
                 why.c_str());
    return false;
  }
  return true;
}

int cmdFit(const std::vector<std::string>& inputs, const util::Flags& flags) {
  model::SampleSet set;
  if (!loadSweep(inputs, set)) return 2;
  const model::ModelSet models = model::fitSamples(std::move(set));
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  model::writeModelSetJson(models, *os);
  return 0;
}

int cmdPredict(const std::vector<std::string>& inputs,
               const util::Flags& flags) {
  if (!flags.has("at")) {
    std::fprintf(stderr, "ovprof_model predict: --at=X is required\n");
    return 2;
  }
  const double at = flags.getDouble("at", 0.0);
  model::SampleSet set;
  if (!loadSweep(inputs, set)) return 2;
  const model::ModelSet models = model::fitSamples(std::move(set));
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  *os << "{\n";
  *os << "  \"ovprof_predict_version\": 1,\n";
  *os << "  \"param_name\": \"" << util::jsonEscape(models.param_name)
      << "\",\n";
  *os << "  \"at\": " << util::jsonNum(at) << ",\n";
  *os << "  \"predictions\": [";
  for (std::size_t i = 0; i < models.metrics.size(); ++i) {
    const model::FittedMetric& m = models.metrics[i];
    const model::Interval p = model::predictInterval(m.fit, at);
    *os << (i == 0 ? "\n" : ",\n");
    *os << "    {\"section\": \"" << util::jsonEscape(m.ref.section)
        << "\", \"class\": " << m.ref.size_class << ", \"metric\": \""
        << util::jsonEscape(m.ref.metric) << "\", \"model\": \""
        << util::jsonEscape(m.fit.model.describe())
        << "\", \"value\": " << util::jsonNum(p.value)
        << ", \"lo\": " << util::jsonNum(p.lo)
        << ", \"hi\": " << util::jsonNum(p.hi) << "}";
  }
  *os << "\n  ]\n}\n";
  return 0;
}

int cmdEval(const std::vector<std::string>& inputs, const util::Flags& flags) {
  const std::string heldout_path = flags.getString("heldout", "");
  if (heldout_path.empty()) {
    std::fprintf(stderr, "ovprof_model eval: --heldout=SAMPLE is required\n");
    return 2;
  }
  model::RunSample heldout;
  if (!heldout.loadFile(heldout_path)) {
    std::fprintf(stderr, "ovprof_model: cannot load sample file %s\n",
                 heldout_path.c_str());
    return 2;
  }
  model::SampleSet set;
  if (!loadSweep(inputs, set)) return 2;
  const model::ModelSet models = model::fitSamples(std::move(set));
  const model::EvalResult result = model::evalHeldOut(models, heldout);
  if (!result.error.empty()) {
    std::fprintf(stderr, "ovprof_model: %s\n", result.error.c_str());
    return 2;
  }
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  *os << "{\n";
  *os << "  \"ovprof_eval_version\": 1,\n";
  *os << "  \"param_name\": \"" << util::jsonEscape(models.param_name)
      << "\",\n";
  *os << "  \"heldout_param\": " << util::jsonNum(heldout.param) << ",\n";
  *os << "  \"mean_xfer_rel_tol\": "
      << util::jsonNum(model::kMeanXferRelTol) << ",\n";
  *os << "  \"bounds_abs_tol_pct\": "
      << util::jsonNum(model::kBoundsAbsTolPct) << ",\n";
  *os << "  \"ok\": " << (result.ok ? "true" : "false") << ",\n";
  *os << "  \"rows\": [";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const model::EvalRow& r = result.rows[i];
    *os << (i == 0 ? "\n" : ",\n");
    *os << "    {\"metric\": \"" << util::jsonEscape(r.metric)
        << "\", \"predicted\": " << util::jsonNum(r.predicted.value)
        << ", \"lo\": " << util::jsonNum(r.predicted.lo)
        << ", \"hi\": " << util::jsonNum(r.predicted.hi)
        << ", \"measured\": " << util::jsonNum(r.measured)
        << ", \"error\": " << util::jsonNum(r.error) << ", \"gated\": "
        << (r.gated ? "true" : "false") << ", \"pass\": "
        << (r.pass ? "true" : "false") << "}";
  }
  *os << "\n  ]\n}\n";
  return result.ok ? 0 : 1;
}

void writeTotals(std::ostream& os, const char* key,
                 const model::WhatIfTotals& t) {
  os << "  \"" << key << "\": {\"transfers\": " << t.accum.transfers
     << ", \"bytes\": " << t.accum.bytes
     << ", \"data_transfer_time\": " << t.accum.data_transfer_time
     << ", \"min_overlapped\": " << t.accum.min_overlapped
     << ", \"max_overlapped\": " << t.accum.max_overlapped
     << ", \"min_pct\": " << util::jsonNum(t.accum.minPct())
     << ", \"max_pct\": " << util::jsonNum(t.accum.maxPct())
     << ", \"comm_time\": " << t.comm_time
     << ", \"comp_time\": " << t.comp_time << "}";
}

int cmdWhatIf(const std::vector<std::string>& inputs,
              const util::Flags& flags) {
  if (inputs.size() != 1) {
    std::fprintf(stderr, "ovprof_model whatif: exactly one TRACE.csv input\n");
    return 2;
  }
  const trace::ReadResult loaded = trace::readCsvFile(inputs.front());
  if (!loaded.collector) {
    std::fprintf(stderr, "ovprof_model: %s: %s\n", inputs.front().c_str(),
                 loaded.error.c_str());
    return 2;
  }
  model::WhatIfConfig cfg;
  cfg.xfer_scale = flags.getDouble("xfer-scale", cfg.xfer_scale);
  cfg.bandwidth_scale = flags.getDouble("bandwidth-scale", cfg.bandwidth_scale);
  cfg.latency_delta = flags.getInt("latency-delta", cfg.latency_delta);
  if (cfg.xfer_scale < 0.0 || cfg.bandwidth_scale <= 0.0) {
    std::fprintf(stderr, "ovprof_model whatif: bad scenario parameters\n");
    return 2;
  }
  const model::WhatIfResult result = model::whatIf(*loaded.collector, cfg);
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  *os << "{\n";
  *os << "  \"ovprof_whatif_version\": 2,\n";
  *os << "  \"xfer_scale\": " << util::jsonNum(cfg.xfer_scale) << ",\n";
  *os << "  \"bandwidth_scale\": " << util::jsonNum(cfg.bandwidth_scale)
      << ",\n";
  *os << "  \"latency_delta\": " << cfg.latency_delta << ",\n";
  writeTotals(*os, "baseline", result.baseline);
  *os << ",\n";
  writeTotals(*os, "scenario", result.scenario);
  *os << "\n}\n";
  return 0;
}

int cmdCosts(const std::vector<std::string>& inputs,
             const util::Flags& flags) {
  if (inputs.size() != 1) {
    std::fprintf(stderr, "ovprof_model costs: exactly one SYMSKEL input\n");
    return 2;
  }
  skel::sym::SymCostReport report;
  std::string error;
  if (!model::loadPatternCosts(inputs.front(), &report, &error)) {
    std::fprintf(stderr, "ovprof_model: %s: %s\n", inputs.front().c_str(),
                 error.c_str());
    return 2;
  }
  std::vector<int> procs;
  if (!tool::parseProcsSpec(flags.getString("procs", "1-64:pow2"), procs,
                            error)) {
    std::fprintf(stderr, "ovprof_model costs: --procs: %s\n", error.c_str());
    return 2;
  }
  std::vector<model::PatternCostEval> evals;
  if (!model::evalPatternCosts(report, procs, &evals, &error)) {
    std::fprintf(stderr, "ovprof_model: %s: %s\n", inputs.front().c_str(),
                 error.c_str());
    return 2;
  }
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  model::writePatternCostJson(report, evals, *os);
  return 0;
}

// Each subcommand declares its own flags, so a flag another subcommand
// reads is rejected (fit --at=3 exits 2).
constexpr util::Flag kOut =
    util::textFlag("out", "FILE", "write the JSON to FILE (default stdout)");
constexpr util::Flag kFitFlags[] = {kOut};
constexpr util::Flag kPredictFlags[] = {
    util::numberFlag("at", "X", "sweep parameter to predict at (required)"),
    kOut};
constexpr util::Flag kEvalFlags[] = {
    util::textFlag("heldout", "SAMPLE",
                   "the held-out run to predict and gate (required)"),
    kOut};
constexpr util::Flag kWhatIfFlags[] = {
    util::numberFlag("xfer-scale", "S",
                     "scale every transfer time by S >= 0 (default 1)"),
    util::numberFlag("bandwidth-scale", "B",
                     "divide every transfer time by B > 0 (default 1)"),
    util::intFlag("latency-delta", "NS",
                  "add NS virtual ns to every transfer (default 0)"),
    kOut};
constexpr util::Flag kCostsFlags[] = {
    util::textFlag("procs", "SPEC",
                   "rank counts: 8, 2,4,6 or 8-64:pow2 (default 1-64:pow2)"),
    kOut};

struct Subcommand {
  std::string_view name;
  util::Cli cli;
  int (*run)(const std::vector<std::string>&, const util::Flags&);
};

constexpr Subcommand kSubcommands[] = {
    {"fit",
     {"ovprof_model fit SAMPLE...",
      "Fits normal-form models (c + a*n^i*log2(n)^j) across a sample sweep.",
      kFitFlags},
     cmdFit},
    {"predict",
     {"ovprof_model predict SAMPLE... --at=X",
      "Predicts every metric at X, with residual-based confidence bands.",
      kPredictFlags},
     cmdPredict},
    {"eval",
     {"ovprof_model eval SAMPLE... --heldout=SAMPLE",
      "Predicts a held-out run and gates the intensive metrics (exit 1).",
      kEvalFlags},
     cmdEval},
    {"whatif",
     {"ovprof_model whatif TRACE.csv",
      "Replays a trace under a scaled transfer-time table.", kWhatIfFlags},
     cmdWhatIf},
    {"costs",
     {"ovprof_model costs SYMSKEL",
      "Evaluates ovprof_check --emit-costs terms at each rank count.",
      kCostsFlags},
     cmdCosts},
};

constexpr util::Cli kCli = {
    "ovprof_model SUBCOMMAND ...",
    "Performance-model fitting and what-if prediction, as deterministic\n"
    "JSON.  Exit code: 0 success, 1 eval gate miss, 2 tool error.",
    {}};

}  // namespace

int main(int argc, char** argv) {
  // The subcommand is the first positional argument; its declaration
  // decides which flags the rest of the command line may carry.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("-", 0) == 0) continue;
    for (const Subcommand& sub : kSubcommands) {
      if (sub.name != arg) continue;
      const tool::CommandLine cl = tool::parseCommandLine(argc, argv, sub.cli);
      const std::vector<std::string> inputs(cl.positional.begin() + 1,
                                            cl.positional.end());
      return sub.run(inputs, cl.flags);
    }
    std::fprintf(stderr, "ovprof_model: unknown subcommand: %s\n", argv[i]);
    return 2;
  }
  // No subcommand: every subcommand's usage, or a rejected flag.
  util::Flags flags;
  if (!flags.parse(argc, argv, kCli)) return 2;
  std::fputs(util::usage(kCli).c_str(), stdout);
  for (const Subcommand& sub : kSubcommands) {
    std::printf("\n%s", util::usage(sub.cli).c_str());
  }
  return 0;
}
