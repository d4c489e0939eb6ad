// What-if prediction on top of the fitted models and the recorded trace.
//
// Two complementary modes:
//
//  * predictInterval / evalHeldOut — evaluate fitted normal-form models at
//    an unmeasured sweep parameter.  The confidence interval is residual
//    based: the point prediction +- the largest absolute training residual
//    of the winning hypothesis (a deliberately blunt, assumption-free
//    band; with 2-3 point sweeps anything distributional would be
//    theater).  evalHeldOut gates only intensive metrics — mean transfer
//    time (relative tolerance) and the overlap-bound percentages (absolute
//    tolerance, in percentage points) — because extensive totals
//    (bytes, transfer counts) scale trivially with the parameter and would
//    make the gate vacuous.
//
//  * whatIf — replay a recorded trace under a scaled a-priori transfer
//    time table (each calibration point mapped through
//    t' = latency_delta + t * xfer_scale / bandwidth_scale, clamped at 0)
//    and report baseline vs. scenario totals.  This is a first-order,
//    frozen-schedule model: the recorded begin/end schedule is kept, only
//    the pricing changes, so second-order effects (a faster network
//    shifting the schedule itself) are out of scope by design.
#pragma once

#include <string>
#include <vector>

#include "model/model_set.hpp"
#include "overlap/report.hpp"
#include "overlap/xfer_table.hpp"
#include "trace/collector.hpp"
#include "util/types.hpp"

namespace ovp::model {

/// A point prediction with its residual-based confidence band.
struct Interval {
  double value = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Evaluates `fit` at parameter `at`; the band is +- max_abs_residual.
[[nodiscard]] Interval predictInterval(const Fit& fit, double at);

// Tolerances of evalHeldOut.  Documented in DESIGN.md 5.12: generous on
// purpose — the models come from 2-3 point sweeps and the gate exists to
// catch wildly wrong models, not to certify precision.

/// Relative tolerance on whole-run mean transfer time.
inline constexpr double kMeanXferRelTol = 0.35;
/// Absolute tolerance, in percentage points, on min_pct / max_pct.
/// Deliberately wide: extrapolating overlap fractions across an eager/
/// rendezvous protocol threshold from a short-regime sweep is the hardest
/// case the gate must still admit.
inline constexpr double kBoundsAbsTolPct = 40.0;

struct EvalRow {
  std::string metric;
  Interval predicted;
  double measured = 0.0;
  double error = 0.0;  ///< relative for mean_xfer_time, else absolute
  bool gated = false;  ///< counted toward pass/fail (vs. informational)
  bool pass = true;
};

struct EvalResult {
  bool ok = false;  ///< every gated row passed
  std::vector<EvalRow> rows;
  std::string error;  ///< non-empty when a required model was missing
};

/// Predicts the held-out run's whole-run metrics at its own parameter and
/// compares against its measured values, within the tolerances above.
[[nodiscard]] EvalResult evalHeldOut(const ModelSet& models,
                                     const RunSample& heldout);

/// Scenario knobs for the frozen-schedule replay.
struct WhatIfConfig {
  double xfer_scale = 1.0;       ///< multiply every transfer time
  double bandwidth_scale = 1.0;  ///< divide every transfer time
  DurationNs latency_delta = 0;  ///< add to every transfer time
};

/// Maps every calibration point of `table` through the scenario transform.
[[nodiscard]] overlap::XferTimeTable scaleTable(
    const overlap::XferTimeTable& table, const WhatIfConfig& cfg);

/// Whole-job totals of one replay (summed across ranks).
struct WhatIfTotals {
  overlap::OverlapAccum accum;
  DurationNs comm_time = 0;
  DurationNs comp_time = 0;
};

struct WhatIfResult {
  WhatIfTotals baseline;  ///< replayed with the collector's own table
  WhatIfTotals scenario;  ///< replayed with the scaled table
};

/// Replays the recorded schedule twice — untouched and repriced — so the
/// caller can compare bound movements under the scenario.  Whole-run
/// totals only: the replay runs with one window that spans any run.
[[nodiscard]] WhatIfResult whatIf(const trace::Collector& c,
                                  const WhatIfConfig& cfg);

}  // namespace ovp::model
