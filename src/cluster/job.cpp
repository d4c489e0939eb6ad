#include "cluster/job.hpp"

#include <ios>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

namespace ovp::cluster {

namespace {

/// Doubles round-trip through hexfloat, so reruns byte-compare exactly.
void putDouble(std::ostream& os, double v) {
  std::ostringstream ss;
  ss << std::hexfloat << v;
  os << ss.str();
}

bool getDouble(std::istream& is, double& v) {
  std::string tok;
  if (!(is >> tok)) return false;
  try {
    std::size_t used = 0;
    v = std::stod(tok, &used);
    return used == tok.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

void JobRecord::save(std::ostream& os) const {
  os << "job.begin " << spec.id << '\n';
  os << "kernel " << spec.kernel << ' ' << spec.klass << ' ' << spec.nranks
     << '\n';
  os << "sched " << spec.arrival << ' ' << spec.priority << ' '
     << spec.estimate << ' ' << start << ' ' << end << '\n';
  os << "interf " << solo_duration << ' ' << link_wait << ' ';
  putDouble(os, slowdown);
  os << ' ';
  putDouble(os, contention_share);
  os << ' ';
  putDouble(os, overlap_delta_pct);
  os << '\n';
  os << "nodes " << nodes.size();
  for (int nd : nodes) os << ' ' << nd;
  os << '\n';
  os << "report.begin\n";
  merged.save(os);
  os << "report.end\n";
  os << "job.end\n";
}

bool JobRecord::load(std::istream& is) {
  *this = JobRecord{};
  std::string word;
  std::string klass;
  if (!(is >> word) || word != "job.begin" || !(is >> spec.id)) return false;
  if (!(is >> word) || word != "kernel" ||
      !(is >> spec.kernel >> klass >> spec.nranks) || klass.size() != 1) {
    return false;
  }
  spec.klass = klass[0];
  if (!(is >> word) || word != "sched" ||
      !(is >> spec.arrival >> spec.priority >> spec.estimate >> start >>
        end)) {
    return false;
  }
  if (!(is >> word) || word != "interf" || !(is >> solo_duration >> link_wait))
    return false;
  if (!getDouble(is, slowdown) || !getDouble(is, contention_share) ||
      !getDouble(is, overlap_delta_pct)) {
    return false;
  }
  std::size_t nnodes = 0;
  if (!(is >> word) || word != "nodes" || !(is >> nnodes)) return false;
  // The count is untrusted: the list grows only as its entries parse.
  for (std::size_t i = 0; i < nnodes; ++i) {
    int nd = 0;
    if (!(is >> nd)) return false;
    nodes.push_back(nd);
  }
  if (!(is >> word) || word != "report.begin") return false;
  is >> std::ws;
  if (!merged.load(is)) return false;
  if (!(is >> word) || word != "report.end") return false;
  return (is >> word) && word == "job.end";
}

}  // namespace ovp::cluster
