// Benchmarks the model-fitting pipeline end to end and records the result
// as a JSON artifact (BENCH_model_fit.json), a record of model quality and
// fit cost:
//
//   * run CG at classes S and A (message sizes scale with the class grid),
//     build model samples, fit the normal-form models, and time the fit
//     itself (host wall time — the one place wall-clock is allowed, because
//     this artifact IS the timing record; tool outputs stay clock-free);
//   * run the held-out class B and record the prediction errors on the
//     gated intensive metrics (mean transfer time, overlap-bound
//     percentages).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "model/model_set.hpp"
#include "model/predict.hpp"
#include "model/sample.hpp"
#include "nas/cg.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace ovp;

namespace {

model::RunSample runClass(nas::Class cls, const char* name) {
  nas::NasParams params;
  params.cls = cls;
  params.nranks = 4;
  const nas::NasResult result = nas::runCg(params);
  return model::RunSample::fromReports(result.reports, "cg", name,
                                       mpi::presetName(params.preset), "",
                                       params.nranks, params.iterations);
}

double rowError(const model::EvalResult& result, const char* metric) {
  for (const model::EvalRow& row : result.rows) {
    if (row.metric == metric) return row.error;
  }
  return -1.0;
}

constexpr util::Flag kFlags[] = {
    util::textFlag("out", "FILE",
                   "JSON artifact to write (default BENCH_model_fit.json)"),
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv,
      {"model_fit_bench", "Times model fitting; records held-out error.",
       kFlags});

  std::printf("=== model_fit_bench ===\n"
              "CG S+A sweep -> fit; class B held out for prediction error.\n");
  model::SampleSet set;
  set.runs.push_back(runClass(nas::Class::S, "S"));
  set.runs.push_back(runClass(nas::Class::A, "A"));
  const model::RunSample heldout = runClass(nas::Class::B, "B");

  const auto fit_start = std::chrono::steady_clock::now();
  const model::ModelSet models = model::fitSamples(set);
  const double fit_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - fit_start)
          .count();

  const model::EvalResult eval = model::evalHeldOut(models, heldout);
  if (!eval.error.empty()) {
    std::fprintf(stderr, "model_fit_bench: %s\n", eval.error.c_str());
    return 1;
  }

  const std::string out_path =
      flags.getString("out", "BENCH_model_fit.json");
  std::ofstream os(out_path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "model_fit_bench: failed to write %s\n",
                 out_path.c_str());
    return 1;
  }
  os << "{\n";
  os << "  \"bench\": \"model_fit\",\n";
  os << "  \"sweep\": \"cg S+A, heldout B\",\n";
  os << "  \"samples\": " << set.runs.size() << ",\n";
  os << "  \"metrics_fitted\": " << models.metrics.size() << ",\n";
  os << "  \"metrics_skipped\": " << models.skipped.size() << ",\n";
  os << "  \"fit_wall_ms\": " << util::jsonNum(fit_wall_ms) << ",\n";
  os << "  \"heldout_param\": " << util::jsonNum(heldout.param) << ",\n";
  os << "  \"mean_xfer_rel_err\": "
     << util::jsonNum(rowError(eval, "mean_xfer_time")) << ",\n";
  os << "  \"min_pct_abs_err\": " << util::jsonNum(rowError(eval, "min_pct"))
     << ",\n";
  os << "  \"max_pct_abs_err\": " << util::jsonNum(rowError(eval, "max_pct"))
     << ",\n";
  os << "  \"gates_ok\": " << (eval.ok ? "true" : "false") << "\n";
  os << "}\n";
  std::printf(
      "fit: %zu metrics in %.3f ms; held-out B: mean-xfer rel err %.3f, "
      "min/max pct abs err %.2f/%.2f, gates %s\n-> %s\n",
      models.metrics.size(), fit_wall_ms, rowError(eval, "mean_xfer_time"),
      rowError(eval, "min_pct"), rowError(eval, "max_pct"),
      eval.ok ? "ok" : "MISSED", out_path.c_str());
  return eval.ok ? 0 : 1;
}
