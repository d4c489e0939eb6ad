#include "model/predict.hpp"

#include <algorithm>
#include <cmath>

#include "trace/timeline.hpp"

namespace ovp::model {

namespace {

double clampPct(double v) { return std::min(100.0, std::max(0.0, v)); }

/// Looks up the whole-run fit for `metric`; poisons the result if absent.
const Fit* wholeFit(EvalResult& out, const ModelSet& models,
                    const RunSample& run, const char* metric) {
  const FittedMetric* fm = models.find(run.merged.whole.name, -1, metric);
  if (fm == nullptr) {
    out.ok = false;
    if (out.error.empty()) {
      out.error = std::string("no fitted model for whole-run metric ") + metric;
    }
    return nullptr;
  }
  return &fm->fit;
}

bool measure(EvalResult& out, const RunSample& run, const char* metric,
             double& measured) {
  const MetricRef ref{run.merged.whole.name, -1, metric};
  if (!metricValue(run, ref, measured)) {
    out.ok = false;
    if (out.error.empty()) out.error = "held-out run lacks metric " + ref.label();
    return false;
  }
  return true;
}

void finishRow(EvalResult& out, EvalRow row, bool relative, double tol) {
  if (relative) {
    const double denom = std::max(std::fabs(row.measured), 1e-9);
    row.error = std::fabs(row.predicted.value - row.measured) / denom;
  } else {
    row.error = std::fabs(row.predicted.value - row.measured);
  }
  row.pass = !row.gated || row.error <= tol;
  if (row.gated && !row.pass) out.ok = false;
  out.rows.push_back(std::move(row));
}

/// Direct prediction of one whole-run metric from its own fit (the
/// informational, extensive rows).
void addRow(EvalResult& out, const ModelSet& models, const RunSample& run,
            const char* metric, bool gated, bool relative, double tol) {
  const Fit* fit = wholeFit(out, models, run, metric);
  double measured = 0.0;
  if (fit == nullptr || !measure(out, run, metric, measured)) return;
  EvalRow row;
  row.metric = metric;
  row.predicted = predictInterval(*fit, run.param);
  row.measured = measured;
  row.gated = gated;
  finishRow(out, std::move(row), relative, tol);
}

/// Prediction of a derived intensive metric as a RATIO of two fitted
/// extensive models, scaled.  Fitting the ratio directly extrapolates
/// badly — a percentage saturates where a straight line keeps climbing —
/// while the extensive numerator and denominator are the quantities that
/// actually follow the normal form, and their ratio inherits the
/// saturation.  The band propagates the residual bands conservatively
/// (num.lo/den.hi .. num.hi/den.lo).
void addRatioRow(EvalResult& out, const ModelSet& models, const RunSample& run,
                 const char* metric, const char* num_metric,
                 const char* den_metric, double scale, bool pct, bool relative,
                 double tol) {
  const Fit* num_fit = wholeFit(out, models, run, num_metric);
  const Fit* den_fit = wholeFit(out, models, run, den_metric);
  double measured = 0.0;
  if (num_fit == nullptr || den_fit == nullptr ||
      !measure(out, run, metric, measured)) {
    return;
  }
  const Interval num = predictInterval(*num_fit, run.param);
  const Interval den = predictInterval(*den_fit, run.param);
  EvalRow row;
  row.metric = metric;
  row.measured = measured;
  row.gated = true;
  row.predicted.value = den.value > 0.0 ? scale * num.value / den.value : 0.0;
  row.predicted.lo = den.hi > 0.0 ? scale * num.lo / den.hi : 0.0;
  row.predicted.hi =
      den.lo > 0.0 ? scale * num.hi / den.lo : row.predicted.value;
  if (pct) {
    row.predicted.value = clampPct(row.predicted.value);
    row.predicted.lo = clampPct(row.predicted.lo);
    row.predicted.hi = clampPct(row.predicted.hi);
  }
  finishRow(out, std::move(row), relative, tol);
}

WhatIfTotals sumRanks(const std::vector<trace::RankWindows>& per_rank) {
  WhatIfTotals t;
  for (const trace::RankWindows& rw : per_rank) {
    t.accum += rw.total;
    t.comm_time = satAdd(t.comm_time, rw.comm_total);
    t.comp_time = satAdd(t.comp_time, rw.comp_total);
  }
  return t;
}

}  // namespace

Interval predictInterval(const Fit& fit, double at) {
  Interval out;
  out.value = fit.eval(at);
  out.lo = out.value - fit.max_abs_residual;
  out.hi = out.value + fit.max_abs_residual;
  return out;
}

EvalResult evalHeldOut(const ModelSet& models, const RunSample& heldout) {
  EvalResult out;
  out.ok = true;
  // Gated, intensive metrics first.  mean_xfer_time is fitted directly:
  // as a function of mean message size it IS the machine's transfer-time
  // curve, which the normal form captures well.  The overlap percentages
  // are predicted as ratios of the fitted extensive models (addRatioRow).
  addRow(out, models, heldout, "mean_xfer_time", /*gated=*/true,
         /*relative=*/true, kMeanXferRelTol);
  addRatioRow(out, models, heldout, "min_pct", "min_overlapped",
              "data_transfer_time", /*scale=*/100.0, /*pct=*/true,
              /*relative=*/false, kBoundsAbsTolPct);
  addRatioRow(out, models, heldout, "max_pct", "max_overlapped",
              "data_transfer_time", /*scale=*/100.0, /*pct=*/true,
              /*relative=*/false, kBoundsAbsTolPct);
  // Informational rows: extensive totals, reported but never gated.
  for (const char* metric :
       {"transfers", "bytes", "data_transfer_time", "min_overlapped",
        "max_overlapped", "computation_time", "communication_call_time"}) {
    addRow(out, models, heldout, metric, /*gated=*/false, /*relative=*/true,
           0.0);
  }
  return out;
}

overlap::XferTimeTable scaleTable(const overlap::XferTimeTable& table,
                                  const WhatIfConfig& cfg) {
  overlap::XferTimeTable out;
  const double scale =
      cfg.bandwidth_scale > 0.0 ? cfg.xfer_scale / cfg.bandwidth_scale
                                : cfg.xfer_scale;
  for (std::size_t i = 0; i < table.points(); ++i) {
    const auto [size, time] = table.point(i);
    const double scaled =
        static_cast<double>(cfg.latency_delta) +
        static_cast<double>(time) * scale;
    // Clamped into [0, kMaxInputTimeNs] like every priced time (DESIGN
    // §5.10), before the conversion a huge scale would make undefined.
    out.add(size, scaled > 0.0
                      ? std::llround(std::min(
                            scaled, static_cast<double>(kMaxInputTimeNs)))
                      : 0);
  }
  return out;
}

WhatIfResult whatIf(const trace::Collector& c, const WhatIfConfig& cfg) {
  WhatIfResult out;
  out.baseline =
      sumRanks(trace::analyzeAllWindows(c, kMaxInputTimeNs, nullptr));
  const overlap::XferTimeTable scaled = scaleTable(c.table(), cfg);
  out.scenario =
      sumRanks(trace::analyzeAllWindows(c, kMaxInputTimeNs, &scaled));
  return out;
}

}  // namespace ovp::model
