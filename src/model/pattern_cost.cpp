#include "model/pattern_cost.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "model/model_set.hpp"
#include "util/strings.hpp"

namespace ovp::model {

bool loadPatternCosts(const std::string& path,
                      skel::sym::SymCostReport* out, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return skel::sym::parseCosts(buf.str(), out, error);
}

bool patternAdmits(const skel::sym::SymCostReport& report, int nprocs) {
  if (nprocs < report.min_procs) return false;
  skel::sym::Env env;
  env.r = 0;
  env.P = nprocs;
  bool holds = false;
  return skel::sym::evalGuard(report.family, env, holds) && holds;
}

bool evalPatternCosts(const skel::sym::SymCostReport& report,
                      const std::vector<int>& procs,
                      std::vector<PatternCostEval>* out,
                      std::string* error) {
  out->clear();
  for (const int p : procs) {
    PatternCostEval e;
    e.procs = p;
    e.admissible = patternAdmits(report, p);
    if (e.admissible) {
      for (const auto& site : report.sites) {
        skel::sym::SiteCostValues v;
        if (!skel::sym::evalSiteCost(site, p, &v)) {
          *error = "site " + site.site + " does not evaluate at P=" +
                   std::to_string(p);
          return false;
        }
        e.sites.push_back(v);
      }
    }
    out->push_back(std::move(e));
  }
  return true;
}

namespace {

using util::jsonNum;

void jsonString(std::ostream& os, const std::string& s) {
  os << '"' << util::jsonEscape(s) << '"';
}

}  // namespace

void writePatternCostJson(const skel::sym::SymCostReport& report,
                          const std::vector<PatternCostEval>& evals,
                          std::ostream& os) {
  os << "{\n";
  os << "  \"ovprof_symskel_version\": 1,\n";
  os << "  \"skeleton\": ";
  jsonString(os, report.skeleton);
  os << ",\n";
  os << "  \"min_procs\": " << report.min_procs << ",\n";
  os << "  \"ns_per_flop\": " << jsonNum(report.ns_per_flop) << ",\n";
  os << "  \"family\": [";
  for (std::size_t i = 0; i < report.family.size(); ++i) {
    os << (i == 0 ? "" : ", ");
    jsonString(os, skel::sym::toString(report.family[i]));
  }
  os << "],\n";
  os << "  \"terms\": [";
  for (std::size_t i = 0; i < report.sites.size(); ++i) {
    const auto& t = report.sites[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"site\": ";
    jsonString(os, t.site);
    os << ", \"msgs\": ";
    jsonString(os, skel::sym::toString(t.msgs));
    os << ", \"bytes\": ";
    jsonString(os, skel::sym::toString(t.bytes));
    os << ", \"flops\": ";
    jsonString(os, skel::sym::toString(t.flops));
    os << ", \"window_flops\": ";
    jsonString(os, skel::sym::toString(t.window_flops));
    os << "}";
  }
  os << "\n  ],\n";
  os << "  \"eval\": [";
  for (std::size_t i = 0; i < evals.size(); ++i) {
    const PatternCostEval& e = evals[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"procs\": " << e.procs << ", \"admissible\": "
       << (e.admissible ? "true" : "false");
    if (e.admissible) {
      os << ", \"sites\": [";
      for (std::size_t j = 0; j < e.sites.size(); ++j) {
        const auto& v = e.sites[j];
        os << (j == 0 ? "" : ", ");
        os << "{\"site\": ";
        jsonString(os, report.sites[j].site);
        os << ", \"msgs\": " << v.msgs << ", \"bytes\": " << v.bytes
           << ", \"flops\": " << v.flops
           << ", \"window_flops\": " << v.window_flops << ", \"window_ns\": "
           << jsonNum(static_cast<double>(v.window_flops) *
                      report.ns_per_flop)
           << "}";
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace ovp::model
