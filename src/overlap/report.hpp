// Derived per-process measures (paper Sec. 2.2/2.3) and the per-process
// output report written at finalize.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "overlap/bounds.hpp"
#include "overlap/counters.hpp"
#include "overlap/size_classes.hpp"
#include "util/types.hpp"

namespace ovp::overlap {

/// Aggregated overlap measures for a set of data-transfer operations.
struct OverlapAccum {
  std::int64_t transfers = 0;
  Bytes bytes = 0;
  /// Sum of a-priori xfer_time over the ops: the paper's "data transfer
  /// time" — net physical-transfer time of all user messages.
  DurationNs data_transfer_time = 0;
  /// Lower / upper bound on how much of data_transfer_time was overlapped.
  DurationNs min_overlapped = 0;
  DurationNs max_overlapped = 0;

  // The sums saturate (satAdd): a loaded trace can price any number of
  // transfers at up to kMaxInputTimeNs each.
  void addTransfer(Bytes size, DurationNs xfer_time, const Bounds& b) {
    ++transfers;
    bytes = satAdd(bytes, size);
    data_transfer_time = satAdd(data_transfer_time, xfer_time);
    min_overlapped = satAdd(min_overlapped, b.min_overlap);
    max_overlapped = satAdd(max_overlapped, b.max_overlap);
  }

  OverlapAccum& operator+=(const OverlapAccum& o) {
    transfers += o.transfers;
    bytes = satAdd(bytes, o.bytes);
    data_transfer_time = satAdd(data_transfer_time, o.data_transfer_time);
    min_overlapped = satAdd(min_overlapped, o.min_overlapped);
    max_overlapped = satAdd(max_overlapped, o.max_overlapped);
    return *this;
  }

  /// Bounds as percentages of data transfer time (0 when no transfers).
  [[nodiscard]] double minPct() const {
    return data_transfer_time > 0 ? 100.0 * static_cast<double>(min_overlapped) /
                                        static_cast<double>(data_transfer_time)
                                  : 0.0;
  }
  [[nodiscard]] double maxPct() const {
    return data_transfer_time > 0 ? 100.0 * static_cast<double>(max_overlapped) /
                                        static_cast<double>(data_transfer_time)
                                  : 0.0;
  }
  /// "The difference between data transfer time and maximum overlapped
  /// transfer time gives the minimum duration of communication that was not
  /// usefully overlapped" (Sec. 2.3) — the paper's key overhead indicator.
  [[nodiscard]] DurationNs minNonOverlapped() const {
    return data_transfer_time - max_overlapped;
  }
};

/// Measures for one monitored code region ("<all>" covers the whole run).
struct SectionReport {
  std::string name;
  OverlapAccum total;
  std::vector<OverlapAccum> by_class;  // indexed by SizeClasses::classOf
  DurationNs computation_time = 0;         // user computation in region
  DurationNs communication_call_time = 0;  // time inside library calls
  std::int64_t calls = 0;                  // communication calls entered
};

/// Per-channel, per-size-class LogGP-style wire accounting, attached to a
/// report when the simulated fabric ran with net::VciParams enabled
/// (channels > 0).  Row (c, k) covers wire transfers on virtual channel c
/// whose wire size falls into class k of `classes`; the machine layer copies
/// the NIC's rows over after a run and derives the o_send / o_recv overhead
/// estimates from the fabric's post/poll costs.  Empty (and omitted from
/// output) when the VCI layer is disabled.
struct VciStats {
  int channels = 0;                    // 0 = layer disabled
  SizeClasses classes;                 // wire-size classes of the rows
  std::vector<VciChannelClass> rows;   // channels * classes.count(), row-major

  [[nodiscard]] const VciChannelClass& at(int channel, int klass) const {
    return rows[static_cast<std::size_t>(channel) *
                    static_cast<std::size_t>(classes.count()) +
                static_cast<std::size_t>(klass)];
  }
  [[nodiscard]] bool any() const { return channels > 0; }

  /// Element-wise merge.  An empty side adopts the other's shape; merging
  /// two non-empty stats requires identical (channels, classes) —
  /// mismatched shapes keep the left side unchanged (reports from one job
  /// always share one fabric config, so this only arises on operator
  /// error).
  VciStats& operator+=(const VciStats& o) {
    if (!o.any()) return *this;
    if (!any()) {
      *this = o;
      return *this;
    }
    if (channels != o.channels || classes != o.classes) return *this;
    for (std::size_t i = 0; i < rows.size() && i < o.rows.size(); ++i) {
      rows[i] += o.rows[i];
    }
    return *this;
  }

  /// What a counter snapshot gained since an earlier snapshot `o` of the
  /// same fabric (same shape; a different shape leaves this unchanged).
  VciStats& operator-=(const VciStats& o) {
    if (channels != o.channels || classes != o.classes) return *this;
    for (std::size_t i = 0; i < rows.size() && i < o.rows.size(); ++i) {
      rows[i] -= o.rows[i];
    }
    return *this;
  }
};

/// Per-process output of the framework, produced at finalize.
struct Report {
  Rank rank = 0;
  SizeClasses classes;
  SectionReport whole;                  // whole-run totals
  std::vector<SectionReport> sections;  // application-named regions
  /// Monitored wall (virtual) time: first..last event minus disabled gaps.
  DurationNs monitored_time = 0;
  std::int64_t events_logged = 0;
  std::int64_t queue_drains = 0;
  /// Diagnostic: how often each bound case fired.
  std::int64_t case_same_call = 0;      // case 1
  std::int64_t case_split_call = 0;     // case 2
  std::int64_t case_inconclusive = 0;   // case 3
  /// Transfers priced outside the calibrated xfer_time range (explicit
  /// extrapolation in XferTimeTable::lookupEx): the a-priori transfer times
  /// behind those bounds are estimates, not measurements.
  std::int64_t xfer_below_range = 0;
  std::int64_t xfer_above_range = 0;
  /// Fault/reliability counters for this rank's NIC (all zero unless the
  /// fabric ran with fault injection enabled).
  FaultStats faults;
  /// Per-channel LogGP breakdown for this rank's NIC (empty unless the
  /// fabric ran with the multi-VCI layer enabled).
  VciStats vci;

  /// Finds a named section; nullptr if absent.
  [[nodiscard]] const SectionReport* findSection(std::string_view name) const;

  /// Writes the human-readable per-process report file (paper Fig. 2's
  /// "output file with overlap numbers").
  void write(std::ostream& os) const;

  /// Exact (lossless) serialization for post-processing tools.
  void save(std::ostream& os) const;
  /// Parses what save() produced; returns false on any malformed input
  /// (the report is left default-constructed in that case).
  [[nodiscard]] bool load(std::istream& is);

  [[nodiscard]] bool saveFile(const std::string& path) const;
  [[nodiscard]] bool loadFile(const std::string& path);
};

/// Merges per-process reports into a job-wide view: accumulators and times
/// are summed; sections are matched by name (rank is set to -1).
[[nodiscard]] Report mergeReports(const std::vector<Report>& reports);

/// Streaming equivalent of mergeReports: fold per-process reports in one at
/// a time and read the merged view at any point, holding only the merged
/// state (never the inputs).  Feeding the same reports in the same order
/// yields a Report identical to mergeReports — mergeReports is implemented
/// on top of this class.  The building block of bounded-memory multi-job
/// aggregation (cluster::Aggregator), where per-rank reports are folded and
/// dropped as each rank finishes.
class MergeAccumulator {
 public:
  MergeAccumulator() { merged_.rank = -1; }

  /// Folds one per-process report into the merged view.
  void add(const Report& r);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] const Report& merged() const { return merged_; }

  /// Moves the merged report out and resets to the empty state.
  [[nodiscard]] Report take();

 private:
  Report merged_;
  std::int64_t count_ = 0;
};

}  // namespace ovp::overlap
