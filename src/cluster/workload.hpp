// Workload input for the cluster scheduler: a text format for explicit job
// lists plus a deterministic synthetic generator for large campaigns.
//
// File format (one job per line, '#' comments and blank lines ignored):
//
//   job <id> <kernel> <class> <nranks> <arrival_ns> <priority> <estimate_ns>
//
// e.g.  job 1 cg S 4 0 0 2500000
//
// Arrivals and estimates are at most kMaxInputTimeNs (util/types.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/job.hpp"

namespace ovp::cluster {

/// Parses a workload file; returns false (and clears `out`) on any
/// malformed line, duplicate id, unknown kernel name, or time past the
/// cap.  `error` (if non-null) receives a one-line description of the
/// first problem.
[[nodiscard]] bool parseWorkload(std::istream& is, std::vector<JobSpec>& out,
                                 std::string* error = nullptr);

[[nodiscard]] bool loadWorkloadFile(const std::string& path,
                                    std::vector<JobSpec>& out,
                                    std::string* error = nullptr);

/// Writes `jobs` in the format parseWorkload reads.
void saveWorkload(std::ostream& os, const std::vector<JobSpec>& jobs);

/// Deterministic synthetic mixed-kernel workload: `njobs` jobs drawn from
/// the kernel registry with sizes in [1, max_ranks], Poisson-ish arrivals,
/// a small priority range, and estimates derived from the spec (so backfill
/// has plausible but imperfect information).  Same (njobs, seed, max_ranks)
/// always yields the same workload.
[[nodiscard]] std::vector<JobSpec> synthWorkload(int njobs, std::uint64_t seed,
                                                 int max_ranks);

}  // namespace ovp::cluster
