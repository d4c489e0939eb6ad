// Sharded streaming aggregation service for multi-job campaigns.
//
// The aggregator consumes per-rank overlap reports *as each rank finishes*
// and keeps only O(running jobs) state: one overlap::MergeAccumulator per
// in-flight job.  When a job's last rank reports, the job is finalized into
// a JobRecord and appended to a bounded in-memory shard buffer; full shard
// buffers are sorted by job id and spilled to numbered shard files.  A
// final bounded-memory k-way merge streams the sorted shards into one
// `ovprof-agg-v1` output, ordered by job id — so a 1k-job x 10k-rank
// campaign never holds more than (running jobs + one shard + one record per
// open shard) in memory, replacing the load-everything-at-finalize model.
//
// File format (text, versioned):
//   ovprof-agg-v1
//   <JobRecord::save() records, ascending job id>
//   agg.end <count>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "cluster/job.hpp"
#include "overlap/report.hpp"
#include "util/types.hpp"

namespace ovp::cluster {

struct AggregatorConfig {
  /// Directory/prefix for shard files (`<prefix>.shard-N`); empty keeps all
  /// finalized records in memory (small campaigns, tests).
  std::string spill_prefix;
  /// Finalized records buffered before a shard is spilled.
  int shard_jobs = 64;
};

class Aggregator {
 public:
  explicit Aggregator(AggregatorConfig cfg);

  /// Opens the streaming accumulator for a job (call at launch).
  void jobStarted(const JobSpec& spec, TimeNs start,
                  const std::vector<int>& nodes);

  /// Folds one rank's report into the job's accumulator; the report can be
  /// discarded by the caller immediately after.
  void addRankReport(std::int64_t job_id, const overlap::Report& report,
                     DurationNs link_wait_delta);

  /// Finalizes a job: computes the interference metrics against the given
  /// solo baseline (solo_duration 0 skips them) and retires the record to
  /// the shard buffer.  After this call the job holds no per-rank state.
  void jobFinished(std::int64_t job_id, TimeNs end, DurationNs solo_duration,
                   double solo_max_overlap_pct);

  /// Flushes the final shard and streams the k-way merge of all shards (by
  /// ascending job id) to `os`.  With no spill prefix the in-memory records
  /// are sorted and written directly.  Returns the record count.
  std::int64_t finalize(std::ostream& os);

  /// Finalized-but-unflushed record count (bounded by shard_jobs).
  [[nodiscard]] int bufferedRecords() const {
    return static_cast<int>(buffer_.size());
  }
  /// High-water mark of simultaneously open jobs (memory-bound audit).
  [[nodiscard]] int peakOpenJobs() const { return peak_open_; }

  /// Reads every record of an ovprof-agg-v1 stream; false on a version or
  /// format error.
  [[nodiscard]] static bool loadAll(std::istream& is,
                                    std::vector<JobRecord>& out);

 private:
  struct OpenJob {
    JobRecord record;  // spec/start/nodes filled; merged grows rank by rank
    overlap::MergeAccumulator acc;
    int ranks_reported = 0;
  };

  void spillShard();

  AggregatorConfig cfg_;
  std::map<std::int64_t, OpenJob> open_;
  std::vector<JobRecord> buffer_;
  std::vector<std::string> shard_paths_;
  std::int64_t finalized_ = 0;
  int peak_open_ = 0;
};

}  // namespace ovp::cluster
