// Fitting a whole sample sweep: one Fit per metric per code section per
// size class, plus the deterministic JSON serialization the ovprof_model
// CLI emits.
//
// The metric catalogue is fixed (see kSectionMetrics / kClassMetrics in
// model_set.cpp): per section the occupancy and accumulator totals plus
// the derived per-transfer / percentage metrics; per message-size class
// (of the whole-run section) the accumulator fields.  Metrics missing
// from any run of the sweep — a section that only some runs entered, or
// runs with differing size-class grids — are skipped and listed, never
// silently fitted over a partial sweep.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "model/fitter.hpp"
#include "model/sample.hpp"

namespace ovp::model {

/// Identifies one fitted series: a section, an optional size class
/// (-1 = the section's all-sizes total) and a metric name.
struct MetricRef {
  std::string section;  ///< "<all>" or an application section name
  int size_class = -1;
  std::string metric;

  [[nodiscard]] std::string label() const;
};

struct FittedMetric {
  MetricRef ref;
  Fit fit;
};

struct ModelSet {
  std::string kernel;
  std::string preset;
  std::string variant;
  std::string param_name;
  std::vector<double> params;  ///< sweep parameter values, ascending
  std::vector<FittedMetric> metrics;
  std::vector<std::string> skipped;  ///< refs absent from some run

  [[nodiscard]] const FittedMetric* find(std::string_view section,
                                         int size_class,
                                         std::string_view metric) const;
};

/// Extracts the value of `ref` from one sample; false when absent.
[[nodiscard]] bool metricValue(const RunSample& run, const MetricRef& ref,
                               double& out);

/// Fits every catalogued metric across the sweep.  The set is sorted by
/// param internally; at least one run is required.
[[nodiscard]] ModelSet fitSamples(SampleSet set);

/// Deterministic JSON: fixed key order, fixed iteration order, fixed
/// float formatting — identical input bytes produce identical output
/// bytes (the CI artifact diff depends on it).
void writeModelSetJson(const ModelSet& models, std::ostream& os);

}  // namespace ovp::model
