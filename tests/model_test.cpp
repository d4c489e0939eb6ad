// src/model/: normal-form fitter recovery on known (noisy) models, sample
// round-trips, model-set fitting/JSON determinism (with a golden file),
// and what-if prediction — including the
// in-process end-to-end: fit a CG class sweep, predict the held-out class,
// and check the measured run lands within the documented tolerances; and
// a seeded line-mutation fuzz of the sample and report loaders.
//
// To regenerate the golden after an intentional change:
//   OVPROF_REGOLD=1 ./build/tests/model_test
// then commit tests/golden/model_synthetic.json.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "line_mutator.hpp"
#include "model/model_set.hpp"
#include "model/pattern_cost.hpp"
#include "model/predict.hpp"
#include "model/sample.hpp"
#include "nas/cg.hpp"
#include "nas/symbolic.hpp"

namespace ovp {
namespace {

// ---------------------------------------------------------------- fitter --

/// The hypothesis index fitMetric reports for a given shape, looked up so
/// the tests don't hard-code positions in defaultHypotheses().
int hypothesisIndex(int exp_num, int exp_den, int log_exp) {
  const std::vector<model::Hypothesis>& hs = model::defaultHypotheses();
  for (std::size_t i = 0; i < hs.size(); ++i) {
    if (hs[i].exp_num == exp_num && hs[i].exp_den == exp_den &&
        hs[i].log_exp == log_exp) {
      return static_cast<int>(i);
    }
  }
  ADD_FAILURE() << "hypothesis n^(" << exp_num << "/" << exp_den << ")*log^"
                << log_exp << " not in the default set";
  return -2;
}

/// Deterministic multiplicative "noise": fixed factors, no RNG.
constexpr double kNoise[] = {1.004, 0.997, 1.002, 0.995, 1.003,
                             0.998, 1.005, 0.996};

std::vector<double> sweep(std::size_t count) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < count; ++i) {
    xs.push_back(1024.0 * std::pow(2.0, static_cast<double>(i)));
  }
  return xs;
}

TEST(Fitter, RecoversLinearExactly) {
  const std::vector<double> xs = sweep(5);
  std::vector<double> ys;
  for (const double n : xs) ys.push_back(5000.0 + 2.5 * n);
  const model::Fit fit = model::fitMetric(xs, ys);
  EXPECT_EQ(fit.hypothesis, hypothesisIndex(1, 1, 0));
  EXPECT_NEAR(fit.model.constant, 5000.0, 1e-6);
  ASSERT_EQ(fit.model.terms.size(), 1u);
  EXPECT_NEAR(fit.model.terms[0].coeff, 2.5, 1e-9);
  EXPECT_NEAR(fit.rss, 0.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Fitter, RecoversNLogNUnderNoise) {
  const std::vector<double> xs = sweep(8);
  std::vector<double> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double clean = 1000.0 + 3.0 * xs[i] * std::log2(xs[i]);
    ys.push_back(clean * kNoise[i]);
  }
  const model::Fit fit = model::fitMetric(xs, ys);
  EXPECT_EQ(fit.hypothesis, hypothesisIndex(1, 1, 1));
  ASSERT_EQ(fit.model.terms.size(), 1u);
  EXPECT_NEAR(fit.model.terms[0].coeff, 3.0, 0.1);
  EXPECT_GT(fit.cv_score, -0.5);  // CV ranking active with 8 samples
  EXPECT_LT(fit.smape, 2.0);      // percent
}

TEST(Fitter, RecoversSqrtUnderNoise) {
  const std::vector<double> xs = sweep(7);
  std::vector<double> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ys.push_back((200.0 + 40.0 * std::sqrt(xs[i])) * kNoise[i]);
  }
  const model::Fit fit = model::fitMetric(xs, ys);
  EXPECT_EQ(fit.hypothesis, hypothesisIndex(1, 2, 0));
  ASSERT_EQ(fit.model.terms.size(), 1u);
  EXPECT_NEAR(fit.model.terms[0].coeff, 40.0, 2.0);
}

TEST(Fitter, ConstantDataYieldsConstantModel) {
  const std::vector<double> xs = sweep(5);
  const std::vector<double> ys(xs.size(), 42.0);
  const model::Fit fit = model::fitMetric(xs, ys);
  EXPECT_EQ(fit.hypothesis, -1);
  EXPECT_TRUE(fit.model.terms.empty());
  EXPECT_NEAR(fit.model.constant, 42.0, 1e-12);
  EXPECT_EQ(fit.eval(1e9), 42.0);
}

TEST(Fitter, SingleSampleDegeneratesToConstant) {
  const model::Fit fit = model::fitMetric({4096.0}, {17.0});
  EXPECT_EQ(fit.hypothesis, -1);
  EXPECT_NEAR(fit.eval(123456.0), 17.0, 1e-12);
}

TEST(Fitter, TwoPointSweepPrefersLinear) {
  // Every single-term hypothesis fits two points exactly; the documented
  // tie-break picks the earliest hypothesis — the latency+bandwidth line.
  const model::Fit fit = model::fitMetric({1024.0, 16384.0}, {3000.0, 40000.0});
  EXPECT_EQ(fit.hypothesis, hypothesisIndex(1, 1, 0));
  EXPECT_NEAR(fit.eval(1024.0), 3000.0, 1e-6);
  EXPECT_NEAR(fit.eval(16384.0), 40000.0, 1e-6);
}

TEST(Fitter, DeterministicAcrossRepeatedFits) {
  const std::vector<double> xs = sweep(6);
  std::vector<double> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ys.push_back((777.0 + 1.25 * xs[i]) * kNoise[i]);
  }
  const model::Fit a = model::fitMetric(xs, ys);
  const model::Fit b = model::fitMetric(xs, ys);
  EXPECT_EQ(a.hypothesis, b.hypothesis);
  EXPECT_EQ(a.model.describe(), b.model.describe());
  EXPECT_EQ(a.model.constant, b.model.constant);
  EXPECT_EQ(a.rss, b.rss);
  EXPECT_EQ(a.cv_score, b.cv_score);
}

// --------------------------------------------------------------- samples --

/// A synthetic report whose metrics follow exact normal forms in n, so the
/// fitter's output on the sweep is predictable and golden-stable.
overlap::Report synthReport(double n) {
  const auto N = [](double v) { return static_cast<std::int64_t>(v); };
  overlap::Report r;
  r.rank = 0;
  r.classes = overlap::SizeClasses::shortLong(16 * 1024);
  r.whole.name = "<all>";
  r.whole.total.transfers = 100;
  r.whole.total.bytes = N(64 * n);
  r.whole.total.data_transfer_time = N(500'000 + 120 * n);
  r.whole.total.min_overlapped = N(100 * n);
  r.whole.total.max_overlapped = N(200'000 + 48 * n);
  r.whole.computation_time = N(2000 * n);
  r.whole.communication_call_time = N(300'000 + 50 * n);
  r.whole.calls = 200;
  r.whole.by_class.resize(2);
  r.whole.by_class[0].transfers = 60;
  r.whole.by_class[0].data_transfer_time = N(200'000 + 40 * n);
  r.whole.by_class[0].min_overlapped = N(30 * n);
  r.whole.by_class[0].max_overlapped = N(60 * n);
  r.whole.by_class[1].transfers = 40;
  r.whole.by_class[1].data_transfer_time = N(300'000 + 80 * n);
  r.whole.by_class[1].min_overlapped = N(70 * n);
  r.whole.by_class[1].max_overlapped = N(100 * n);
  overlap::SectionReport solve;
  solve.name = "solve";
  solve.by_class.resize(2);
  solve.total.transfers = 80;
  solve.total.bytes = N(48 * n);
  solve.total.data_transfer_time = N(400'000 + 90 * n);
  solve.total.min_overlapped = N(80 * n);
  solve.total.max_overlapped = N(85 * n);
  solve.computation_time = N(1500 * n);
  solve.communication_call_time = N(250'000 + 30 * n);
  solve.calls = 160;
  r.sections.push_back(solve);
  return r;
}

model::RunSample synthSample(double n) {
  return model::RunSample::fromReports({synthReport(n)}, "synth",
                                       std::to_string(static_cast<int>(n)),
                                       "MVAPICH2", "", 4, 0,
                                       /*param_override=*/n);
}

model::SampleSet synthSweep() {
  model::SampleSet set;
  for (const double n : {1000.0, 2000.0, 4000.0}) {
    set.runs.push_back(synthSample(n));
  }
  return set;
}

TEST(Sample, SaveLoadRoundTripsByteForByte) {
  const model::RunSample sample = synthSample(2000.0);
  std::ostringstream first;
  sample.save(first);
  model::RunSample reloaded;
  std::istringstream is(first.str());
  ASSERT_TRUE(reloaded.load(is));
  EXPECT_EQ(reloaded.kernel, sample.kernel);
  EXPECT_EQ(reloaded.cls, sample.cls);
  EXPECT_EQ(reloaded.preset, sample.preset);
  EXPECT_EQ(reloaded.variant, sample.variant);
  EXPECT_EQ(reloaded.nranks, sample.nranks);
  EXPECT_EQ(reloaded.param_name, sample.param_name);
  EXPECT_EQ(reloaded.param, sample.param);
  std::ostringstream second;
  reloaded.save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Sample, DefaultParamIsMeanBytesPerTransfer) {
  const model::RunSample sample = model::RunSample::fromReports(
      {synthReport(1000.0)}, "synth", "S", "MVAPICH2", "", 4, 0);
  EXPECT_EQ(sample.param_name, "mean_bytes");
  EXPECT_DOUBLE_EQ(sample.param, 64'000.0 / 100.0);
}

TEST(Sample, ConsistencyRejectsMixedSweeps) {
  model::SampleSet set = synthSweep();
  set.runs[1].preset = "OpenMPI(pipelined)";
  std::string why;
  EXPECT_FALSE(set.consistent(&why));
  EXPECT_EQ(why, "preset");
}

TEST(ModelSet, MetricValueReadsSectionsAndClasses) {
  const model::RunSample sample = synthSample(1000.0);
  double v = 0.0;
  ASSERT_TRUE(model::metricValue(sample, {"<all>", -1, "mean_xfer_time"}, v));
  EXPECT_DOUBLE_EQ(v, 620'000.0 / 100.0);
  ASSERT_TRUE(model::metricValue(sample, {"<all>", 1, "data_transfer_time"}, v));
  EXPECT_DOUBLE_EQ(v, 380'000.0);
  ASSERT_TRUE(model::metricValue(sample, {"solve", -1, "computation_time"}, v));
  EXPECT_DOUBLE_EQ(v, 1'500'000.0);
  EXPECT_FALSE(model::metricValue(sample, {"absent", -1, "calls"}, v));
  EXPECT_FALSE(model::metricValue(sample, {"<all>", 7, "transfers"}, v));
}

TEST(ModelSet, FitsSweepAndRecoversShapes) {
  const model::ModelSet models = model::fitSamples(synthSweep());
  EXPECT_EQ(models.kernel, "synth");
  EXPECT_EQ(models.param_name, "param");
  ASSERT_EQ(models.params.size(), 3u);
  EXPECT_TRUE(models.skipped.empty());

  const model::FittedMetric* comp = models.find("<all>", -1, "computation_time");
  ASSERT_NE(comp, nullptr);
  EXPECT_EQ(comp->fit.hypothesis, hypothesisIndex(1, 1, 0));
  EXPECT_NEAR(comp->fit.eval(3000.0), 6'000'000.0, 1.0);

  const model::FittedMetric* transfers = models.find("<all>", -1, "transfers");
  ASSERT_NE(transfers, nullptr);
  EXPECT_EQ(transfers->fit.hypothesis, -1);  // constant across the sweep
  EXPECT_DOUBLE_EQ(transfers->fit.eval(9999.0), 100.0);

  const model::FittedMetric* cls1 =
      models.find("<all>", 1, "data_transfer_time");
  ASSERT_NE(cls1, nullptr);
  EXPECT_NEAR(cls1->fit.eval(8000.0), 300'000.0 + 80 * 8000.0, 1.0);

  const model::FittedMetric* solve =
      models.find("solve", -1, "communication_call_time");
  ASSERT_NE(solve, nullptr);
  EXPECT_NEAR(solve->fit.eval(1000.0), 280'000.0, 1.0);
}

TEST(ModelSet, MissingSectionIsSkippedNotMisfitted) {
  model::SampleSet set = synthSweep();
  set.runs[2].merged.sections.clear();  // "solve" absent from one run
  const model::ModelSet models = model::fitSamples(std::move(set));
  EXPECT_EQ(models.find("solve", -1, "calls"), nullptr);
  bool listed = false;
  for (const std::string& s : models.skipped) {
    if (s.find("solve/") == 0) listed = true;
  }
  EXPECT_TRUE(listed);
  // The intact whole-run metrics still fitted.
  EXPECT_NE(models.find("<all>", -1, "calls"), nullptr);
}

TEST(ModelSet, JsonIsBitIdenticalAcrossReruns) {
  std::ostringstream a, b;
  model::writeModelSetJson(model::fitSamples(synthSweep()), a);
  model::writeModelSetJson(model::fitSamples(synthSweep()), b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"ovprof_model_version\": 1"), std::string::npos);
}

TEST(ModelSet, GoldenSyntheticSweep) {
  std::ostringstream os;
  model::writeModelSetJson(model::fitSamples(synthSweep()), os);
  compareOrRegold("model_synthetic.json", os.str());
}

// ---------------------------------------------------------------- predict --

TEST(Predict, IntervalIsResidualBand) {
  const std::vector<double> xs = sweep(5);
  std::vector<double> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ys.push_back((100.0 + 2.0 * xs[i]) * kNoise[i]);
  }
  const model::Fit fit = model::fitMetric(xs, ys);
  const model::Interval p = model::predictInterval(fit, 5000.0);
  EXPECT_DOUBLE_EQ(p.value, fit.eval(5000.0));
  EXPECT_DOUBLE_EQ(p.hi - p.value, fit.max_abs_residual);
  EXPECT_DOUBLE_EQ(p.value - p.lo, fit.max_abs_residual);
  EXPECT_GT(fit.max_abs_residual, 0.0);
}

TEST(Predict, EvalHeldOutPassesOnCleanSyntheticSweep) {
  const model::ModelSet models = model::fitSamples(synthSweep());
  const model::RunSample heldout = synthSample(8000.0);
  const model::EvalResult result =
      model::evalHeldOut(models, heldout);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.ok);
  ASSERT_GE(result.rows.size(), 3u);
  int gated = 0;
  for (const model::EvalRow& row : result.rows) {
    if (row.gated) {
      ++gated;
      EXPECT_TRUE(row.pass) << row.metric << " err " << row.error;
      EXPECT_LT(row.error, 1.0) << row.metric;
    }
  }
  EXPECT_EQ(gated, 3);
}

TEST(Predict, EvalFailsWhenModelIsWildlyOff) {
  model::SampleSet set = synthSweep();
  const model::ModelSet models = model::fitSamples(std::move(set));
  model::RunSample heldout = synthSample(8000.0);
  // Sabotage the held-out measurement: bounds nowhere near the model.
  heldout.merged.whole.total.min_overlapped = 0;
  heldout.merged.whole.total.max_overlapped = 0;
  heldout.merged.whole.total.data_transfer_time *= 10;
  const model::EvalResult result =
      model::evalHeldOut(models, heldout);
  EXPECT_FALSE(result.ok);
}

TEST(Predict, WhatIfIdentityScaleReproducesBaseline) {
  nas::NasParams params;
  params.cls = nas::Class::S;
  params.nranks = 4;
  params.trace.enabled = true;
  const nas::NasResult result = nas::runCg(params);
  ASSERT_TRUE(result.trace != nullptr);
  const model::WhatIfResult identity =
      model::whatIf(*result.trace, model::WhatIfConfig{});
  EXPECT_EQ(identity.baseline.accum.transfers,
            identity.scenario.accum.transfers);
  EXPECT_EQ(identity.baseline.accum.data_transfer_time,
            identity.scenario.accum.data_transfer_time);
  EXPECT_EQ(identity.baseline.accum.min_overlapped,
            identity.scenario.accum.min_overlapped);
  EXPECT_EQ(identity.baseline.accum.max_overlapped,
            identity.scenario.accum.max_overlapped);
  EXPECT_GT(identity.baseline.accum.transfers, 0);

  // A 3x slower fabric must reprice the same schedule upward.
  model::WhatIfConfig slow;
  slow.xfer_scale = 3.0;
  const model::WhatIfResult scaled = model::whatIf(*result.trace, slow);
  EXPECT_EQ(scaled.baseline.accum.data_transfer_time,
            identity.baseline.accum.data_transfer_time);
  EXPECT_GT(scaled.scenario.accum.data_transfer_time,
            scaled.baseline.accum.data_transfer_time);
  // Frozen schedule: the transfer population itself is unchanged.
  EXPECT_EQ(scaled.scenario.accum.transfers, scaled.baseline.accum.transfers);
  EXPECT_EQ(scaled.scenario.accum.bytes, scaled.baseline.accum.bytes);
}

TEST(Predict, ScaleTableMapsEveryPoint) {
  overlap::XferTimeTable table;
  table.add(1024, 4000);
  table.add(65536, 60000);
  model::WhatIfConfig cfg;
  cfg.xfer_scale = 0.5;
  cfg.latency_delta = 100;
  const overlap::XferTimeTable scaled = model::scaleTable(table, cfg);
  ASSERT_EQ(scaled.points(), 2u);
  EXPECT_EQ(scaled.point(0).second, 100 + 2000);
  EXPECT_EQ(scaled.point(1).second, 100 + 30000);
  // Aggressive negative latency clamps at zero instead of going negative.
  cfg.xfer_scale = 0.0;
  cfg.latency_delta = -50;
  EXPECT_EQ(model::scaleTable(table, cfg).point(0).second, 0);
}

// ----------------------------------------------------------- end-to-end --

model::RunSample cgSample(nas::Class cls, const char* name) {
  nas::NasParams params;
  params.cls = cls;
  params.nranks = 4;
  const nas::NasResult result = nas::runCg(params);
  EXPECT_TRUE(result.verified);
  return model::RunSample::fromReports(result.reports, "cg", name,
                                       mpi::presetName(params.preset), "",
                                       params.nranks, params.iterations);
}

constexpr int kMutants = 1000;

/// Feeds kMutants seeded line mutants of `text` to T::load.  The loader
/// must neither throw nor crash, and what it accepts must save to text it
/// loads back to the same bytes.  Returns how many mutants loaded.
template <typename T>
int fuzzLoader(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream good(text);
  for (std::string line; std::getline(good, line);) lines.push_back(line);
  int loaded = 0;
  for (std::uint64_t seed = 1; seed <= kMutants; ++seed) {
    std::ostringstream mutant;
    for (const std::string& line : fuzz::mutateLines(lines, seed, ' ')) {
      mutant << line << '\n';
    }
    T value;
    std::istringstream in(mutant.str());
    bool ok = false;
    EXPECT_NO_THROW(ok = value.load(in)) << "seed " << seed;
    if (!ok) continue;
    ++loaded;
    std::ostringstream once;
    value.save(once);
    T again;
    std::istringstream reread(once.str());
    EXPECT_TRUE(again.load(reread)) << "seed " << seed;
    std::ostringstream twice;
    again.save(twice);
    EXPECT_TRUE(once.str() == twice.str()) << "seed " << seed;
  }
  return loaded;
}

// Counts in a sample or report file are untrusted: a huge `sections` or
// vci channel count is rejected, never allocated, and seeded line mutants
// of a cg S/4 sample and of a report with faults and vci blocks never
// make the loaders throw.
TEST(SampleLoad, MutatedLinesNeverCrash) {
  const model::RunSample sample = cgSample(nas::Class::S, "S");
  std::ostringstream sample_text;
  sample.save(sample_text);
  for (const char* count : {"9223372036854775807", "100000000000", "-1"}) {
    std::string text = sample_text.str();
    const std::size_t at = text.find("\nsections ") + 10;
    text.replace(at, text.find('\n', at) - at, count);
    model::RunSample s;
    std::istringstream in(text);
    bool ok = true;
    EXPECT_NO_THROW(ok = s.load(in)) << count;
    EXPECT_FALSE(ok) << count;
  }

  overlap::Report report = sample.merged;
  report.faults.attempts = 120;
  report.faults.drops = 6;
  report.faults.retransmissions = 7;
  report.faults.timeouts = 2;
  report.faults.acks_sent = 114;
  report.vci.channels = 2;
  report.vci.classes = overlap::SizeClasses::fromBounds({256, 8192});
  overlap::VciChannelClass row;
  row.posts = 40;
  row.deliveries = 39;
  row.bytes = 4096;
  row.link_wait = 350;
  report.vci.rows.assign(6, row);
  std::ostringstream report_text;
  report.save(report_text);
  ASSERT_NE(report_text.str().find("\nfaults "), std::string::npos);
  ASSERT_NE(report_text.str().find("\nvcirow "), std::string::npos);
  std::string huge_vci = report_text.str();
  const std::size_t vci_at = huge_vci.find("\nvci 2 ") + 5;
  huge_vci.replace(vci_at, 1, "2147483647");
  overlap::Report r;
  std::istringstream in(huge_vci);
  bool ok = true;
  EXPECT_NO_THROW(ok = r.load(in));
  EXPECT_FALSE(ok);

  // Both outcomes occur, so neither branch is vacuous.
  for (const int loaded : {fuzzLoader<model::RunSample>(sample_text.str()),
                           fuzzLoader<overlap::Report>(report_text.str())}) {
    EXPECT_GT(loaded, 0);
    EXPECT_LT(loaded, kMutants);
  }
}

TEST(EndToEnd, CgSweepPredictsHeldOutClassWithinTolerance) {
  // The acceptance scenario, in-process: CG's message sizes scale with the
  // class grid, so S+A form a two-point sweep in mean transfer size and B
  // is a genuine extrapolation target.  The documented tolerances
  // (DESIGN.md 5.12) are kMeanXferRelTol and kBoundsAbsTolPct.
  model::SampleSet set;
  set.runs.push_back(cgSample(nas::Class::S, "S"));
  set.runs.push_back(cgSample(nas::Class::A, "A"));
  ASSERT_TRUE(set.consistent(nullptr));
  const model::RunSample heldout = cgSample(nas::Class::B, "B");
  ASSERT_GT(heldout.param, set.runs[0].param);
  ASSERT_GT(heldout.param, set.runs[1].param);

  const model::ModelSet models = model::fitSamples(std::move(set));
  const model::EvalResult result =
      model::evalHeldOut(models, heldout);
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const model::EvalRow& row : result.rows) {
    if (row.gated) {
      EXPECT_TRUE(row.pass) << row.metric << ": predicted "
                            << row.predicted.value << ", measured "
                            << row.measured << ", err " << row.error;
    }
  }
  EXPECT_TRUE(result.ok);
}

TEST(PatternCost, JsonEscapesControlBytesInSiteNames) {
  // A cost file's site token is any run of non-blank bytes, a control byte
  // included; the JSON must escape it, not copy it raw.
  nas::SkeletonParams params;
  const nas::SymSkeletonBuildResult sym =
      nas::buildNasSymSkeleton("cg", params);
  ASSERT_TRUE(sym.ok()) << sym.error;
  skel::sym::SymCostReport report = skel::sym::extractCosts(sym.skeleton);
  ASSERT_FALSE(report.sites.empty());
  report.sites[0].site.insert(1, 1, '\x01');
  std::vector<model::PatternCostEval> evals;
  std::string error;
  ASSERT_TRUE(model::evalPatternCosts(report, {4}, &evals, &error)) << error;
  std::ostringstream os;
  model::writePatternCostJson(report, evals, os);
  const std::string json = os.str();
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

// Seeded line mutants of every symbolic template's ovprof-symskel-v1
// export: parseCosts never throws and reports an error exactly when it
// fails, and whatever it accepts evaluates at P = 1..8, 16, 32 and 64
// without throwing.  Among the mutants is a literal too large for int64
// (a 0 turned into 99999999999999999999), which must fail with a message.
TEST(PatternCost, MutatedLinesNeverCrash) {
  std::vector<int> procs;
  for (int p = 1; p <= 64; p = p < 8 ? p + 1 : 2 * p) procs.push_back(p);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& kernel : nas::nasSymbolicKernels()) {
    const nas::SymSkeletonBuildResult sym =
        nas::buildNasSymSkeleton(kernel, nas::SkeletonParams{});
    ASSERT_TRUE(sym.ok()) << sym.error;
    std::vector<std::string> lines;
    std::istringstream good(
        skel::sym::costsToString(skel::sym::extractCosts(sym.skeleton)));
    for (std::string line; std::getline(good, line);) lines.push_back(line);
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      std::string text;
      for (const std::string& line : fuzz::mutateLines(lines, seed, ' ')) {
        text += line + "\n";
      }
      skel::sym::SymCostReport report;
      std::string error;
      bool ok = false;
      ASSERT_NO_THROW(ok = skel::sym::parseCosts(text, &report, &error))
          << kernel << " seed " << seed;
      ASSERT_EQ(ok, error.empty()) << kernel << " seed " << seed;
      if (!ok) {
        ++rejected;
        continue;
      }
      ++accepted;
      std::vector<model::PatternCostEval> evals;
      ASSERT_NO_THROW((void)model::evalPatternCosts(report, procs, &evals,
                                                    &error))
          << kernel << " seed " << seed;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace ovp
