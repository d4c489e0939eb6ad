#include "model/model_set.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/strings.hpp"

namespace ovp::model {

namespace {

/// Metrics fitted for every section (whole-run and named).
constexpr const char* kSectionMetrics[] = {
    "computation_time", "communication_call_time",
    "calls",            "transfers",
    "bytes",            "data_transfer_time",
    "min_overlapped",   "max_overlapped",
    "mean_xfer_time",   "min_pct",
    "max_pct",
};

/// Metrics fitted per message-size class of the whole-run section.
constexpr const char* kClassMetrics[] = {
    "transfers",
    "data_transfer_time",
    "min_overlapped",
    "max_overlapped",
};

bool accumMetric(const overlap::OverlapAccum& a, std::string_view metric,
                 double& out) {
  if (metric == "transfers") {
    out = static_cast<double>(a.transfers);
  } else if (metric == "bytes") {
    out = static_cast<double>(a.bytes);
  } else if (metric == "data_transfer_time") {
    out = static_cast<double>(a.data_transfer_time);
  } else if (metric == "min_overlapped") {
    out = static_cast<double>(a.min_overlapped);
  } else if (metric == "max_overlapped") {
    out = static_cast<double>(a.max_overlapped);
  } else if (metric == "mean_xfer_time") {
    out = a.transfers > 0 ? static_cast<double>(a.data_transfer_time) /
                                static_cast<double>(a.transfers)
                          : 0.0;
  } else if (metric == "min_pct") {
    out = a.minPct();
  } else if (metric == "max_pct") {
    out = a.maxPct();
  } else {
    return false;
  }
  return true;
}

using util::jsonEscape;

}  // namespace

std::string jsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string MetricRef::label() const {
  std::string out = section;
  if (size_class >= 0) out += "/class" + std::to_string(size_class);
  return out + "/" + metric;
}

const FittedMetric* ModelSet::find(std::string_view section, int size_class,
                                   std::string_view metric) const {
  for (const FittedMetric& m : metrics) {
    if (m.ref.section == section && m.ref.size_class == size_class &&
        m.ref.metric == metric) {
      return &m;
    }
  }
  return nullptr;
}

bool metricValue(const RunSample& run, const MetricRef& ref, double& out) {
  const overlap::SectionReport* section = nullptr;
  if (ref.section == run.merged.whole.name) {
    section = &run.merged.whole;
  } else {
    section = run.merged.findSection(ref.section);
  }
  if (section == nullptr) return false;
  if (ref.size_class >= 0) {
    if (static_cast<std::size_t>(ref.size_class) >= section->by_class.size()) {
      return false;
    }
    return accumMetric(section->by_class[static_cast<std::size_t>(
                           ref.size_class)],
                       ref.metric, out);
  }
  if (ref.metric == "computation_time") {
    out = static_cast<double>(section->computation_time);
    return true;
  }
  if (ref.metric == "communication_call_time") {
    out = static_cast<double>(section->communication_call_time);
    return true;
  }
  if (ref.metric == "calls") {
    out = static_cast<double>(section->calls);
    return true;
  }
  return accumMetric(section->total, ref.metric, out);
}

ModelSet fitSamples(SampleSet set) {
  set.sortByParam();
  ModelSet out;
  if (set.runs.empty()) return out;
  const RunSample& first = set.runs.front();
  out.kernel = first.kernel;
  out.preset = first.preset;
  out.variant = first.variant;
  out.param_name = first.param_name;
  for (const RunSample& run : set.runs) out.params.push_back(run.param);

  // The catalogue, in deterministic order: whole-run section first (its
  // totals, then its size classes), then the first run's named sections.
  std::vector<MetricRef> refs;
  auto addSection = [&refs](const std::string& name) {
    for (const char* metric : kSectionMetrics) {
      refs.push_back({name, -1, metric});
    }
  };
  addSection(first.merged.whole.name);
  const int nclasses = static_cast<int>(first.merged.whole.by_class.size());
  for (int c = 0; c < nclasses; ++c) {
    for (const char* metric : kClassMetrics) {
      refs.push_back({first.merged.whole.name, c, metric});
    }
  }
  for (const overlap::SectionReport& s : first.merged.sections) {
    addSection(s.name);
  }

  std::vector<double> ys;
  for (const MetricRef& ref : refs) {
    ys.clear();
    bool present = true;
    for (const RunSample& run : set.runs) {
      double v = 0.0;
      if (!metricValue(run, ref, v)) {
        present = false;
        break;
      }
      ys.push_back(v);
    }
    if (!present) {
      out.skipped.push_back(ref.label());
      continue;
    }
    FittedMetric fm;
    fm.ref = ref;
    fm.fit = fitMetric(out.params, ys);
    out.metrics.push_back(std::move(fm));
  }
  return out;
}

void writeModelSetJson(const ModelSet& models, std::ostream& os) {
  os << "{\n";
  os << "  \"ovprof_model_version\": 1,\n";
  os << "  \"kernel\": \"" << jsonEscape(models.kernel) << "\",\n";
  os << "  \"preset\": \"" << jsonEscape(models.preset) << "\",\n";
  os << "  \"variant\": \"" << jsonEscape(models.variant) << "\",\n";
  os << "  \"param_name\": \"" << jsonEscape(models.param_name) << "\",\n";
  os << "  \"params\": [";
  for (std::size_t i = 0; i < models.params.size(); ++i) {
    if (i != 0) os << ", ";
    os << jsonNum(models.params[i]);
  }
  os << "],\n";
  os << "  \"skipped\": [";
  for (std::size_t i = 0; i < models.skipped.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << jsonEscape(models.skipped[i]) << '"';
  }
  os << "],\n";
  os << "  \"metrics\": [";
  for (std::size_t i = 0; i < models.metrics.size(); ++i) {
    const FittedMetric& m = models.metrics[i];
    const Fit& f = m.fit;
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"section\": \"" << jsonEscape(m.ref.section)
       << "\", \"class\": " << m.ref.size_class << ", \"metric\": \""
       << jsonEscape(m.ref.metric) << "\",\n";
    os << "     \"model\": \"" << jsonEscape(f.model.describe())
       << "\", \"constant\": " << jsonNum(f.model.constant)
       << ", \"terms\": [";
    for (std::size_t t = 0; t < f.model.terms.size(); ++t) {
      const Term& term = f.model.terms[t];
      if (t != 0) os << ", ";
      os << "{\"coeff\": " << jsonNum(term.coeff)
         << ", \"exp_num\": " << term.exp_num
         << ", \"exp_den\": " << term.exp_den
         << ", \"log_exp\": " << term.log_exp << "}";
    }
    os << "],\n";
    os << "     \"hypothesis\": " << f.hypothesis
       << ", \"samples\": " << f.samples << ", \"rss\": " << jsonNum(f.rss)
       << ", \"r2\": " << jsonNum(f.r2) << ", \"smape\": " << jsonNum(f.smape)
       << ", \"cv_score\": "
       << (f.cv_score < 0 ? std::string("null") : jsonNum(f.cv_score))
       << ", \"max_abs_residual\": " << jsonNum(f.max_abs_residual) << "}";
  }
  os << "\n  ]\n";
  os << "}\n";
}

}  // namespace ovp::model
