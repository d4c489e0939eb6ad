#include "cluster/workload.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "cluster/kernels.hpp"
#include "util/rng.hpp"

namespace ovp::cluster {

namespace {

void fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

}  // namespace

bool parseWorkload(std::istream& is, std::vector<JobSpec>& out,
                   std::string* error) {
  out.clear();
  std::set<std::int64_t> ids;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word != "job") {
      fail(error, "line " + std::to_string(lineno) + ": expected 'job'");
      out.clear();
      return false;
    }
    JobSpec j;
    std::string klass;
    ls >> j.id >> j.kernel >> klass >> j.nranks >> j.arrival >> j.priority >>
        j.estimate;
    if (!ls || klass.size() != 1) {
      fail(error, "line " + std::to_string(lineno) + ": malformed job entry");
      out.clear();
      return false;
    }
    j.klass = klass[0];
    if (!kernelKnown(j.kernel)) {
      fail(error, "line " + std::to_string(lineno) + ": unknown kernel '" +
                      j.kernel + "'");
      out.clear();
      return false;
    }
    if (j.nranks < 1 || j.arrival < 0 || j.estimate < 0) {
      fail(error, "line " + std::to_string(lineno) + ": invalid field value");
      out.clear();
      return false;
    }
    if (j.arrival > kMaxInputTimeNs || j.estimate > kMaxInputTimeNs) {
      fail(error, "line " + std::to_string(lineno) +
                      ": arrival or estimate above the cap of " +
                      std::to_string(kMaxInputTimeNs) + " ns");
      out.clear();
      return false;
    }
    if (!ids.insert(j.id).second) {
      fail(error, "line " + std::to_string(lineno) + ": duplicate job id " +
                      std::to_string(j.id));
      out.clear();
      return false;
    }
    out.push_back(std::move(j));
  }
  return true;
}

bool loadWorkloadFile(const std::string& path, std::vector<JobSpec>& out,
                      std::string* error) {
  std::ifstream is(path);
  if (!is) {
    fail(error, "cannot open workload file: " + path);
    return false;
  }
  return parseWorkload(is, out, error);
}

void saveWorkload(std::ostream& os, const std::vector<JobSpec>& jobs) {
  os << "# job <id> <kernel> <class> <nranks> <arrival_ns> <priority>"
     << " <estimate_ns>\n";
  for (const JobSpec& j : jobs) {
    os << "job " << j.id << ' ' << j.kernel << ' ' << j.klass << ' '
       << j.nranks << ' ' << j.arrival << ' ' << j.priority << ' '
       << j.estimate << '\n';
  }
}

std::vector<JobSpec> synthWorkload(int njobs, std::uint64_t seed,
                                   int max_ranks) {
  util::Rng rng(seed);
  const auto& kernels = kernelNames();
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(njobs));
  TimeNs arrival = 0;
  for (int i = 0; i < njobs; ++i) {
    JobSpec j;
    j.id = i + 1;
    j.kernel = std::string(kernels[rng.below(kernels.size())]);
    const int kdie = static_cast<int>(rng.below(10));
    j.klass = kdie < 6 ? 'S' : (kdie < 9 ? 'A' : 'B');
    j.nranks = static_cast<int>(rng.range(1, max_ranks));
    // Exponential-ish interarrival gaps via a coarse geometric draw.
    arrival += static_cast<TimeNs>(rng.range(0, 400)) * 1000;
    j.arrival = arrival;
    j.priority = static_cast<int>(rng.range(0, 2));
    // Plausible-but-imperfect estimate: grows with class and rank count,
    // jittered +/-25% so backfill plans with realistic information.
    const std::int64_t base =
        (j.klass == 'S' ? 1 : (j.klass == 'A' ? 4 : 16)) * 800'000LL +
        40'000LL * j.nranks;
    j.estimate = base + (base * rng.range(-25, 25)) / 100;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace ovp::cluster
