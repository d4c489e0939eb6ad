// Data-processing module (paper Sec. 2.4).
//
// Consumes timestamped events in order and updates overlap measures
// on-the-fly: no trace is kept.  The paper's state machine — the running
// integrals of user-computation and in-library time, the call index, the
// disabled time and one small record per *currently active* transfer — is
// overlap::Replay (replay.hpp), the same one the offline window analysis,
// the advisor and the Chrome export run over a trace.  The Processor is its
// live sink: it keeps only the stack of open named sections and the
// per-section and per-size-class accumulators.  This is what lets the
// collection queue be a fixed-size circular structure that is simply reset
// after each drain.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "overlap/events.hpp"
#include "overlap/replay.hpp"
#include "overlap/report.hpp"
#include "overlap/size_classes.hpp"
#include "overlap/xfer_table.hpp"
#include "util/types.hpp"

namespace ovp::overlap {

class Processor {
 public:
  Processor(const XferTimeTable& table, SizeClasses classes);

  /// Interns a section label; repeat calls with the same name return the
  /// same id.  Id 0 is the whole-run pseudo-section.
  SectionId internSection(std::string_view name);

  /// Name of an interned section ("" for an unknown id).  Lets event
  /// observers resolve the section ids carried by SECTION_BEGIN events.
  [[nodiscard]] std::string_view sectionName(SectionId id) const;

  /// Feeds one event.  Events must arrive in non-decreasing time order.
  void consume(const Event& e);

  /// Closes still-active transfers as inconclusive (case 3) and returns the
  /// final report.  The processor must not be fed further events after this.
  [[nodiscard]] Report finalize(Rank rank, TimeNs end_time);

  [[nodiscard]] std::size_t activeTransfers() const {
    return replay_.openTransfers();
  }

 private:
  template <typename>
  friend class Replay;  // calls the sink hooks below

  // Replay sink: the payload of an open transfer is the sections active at
  // its BEGIN (incl. 0), which the transfer is attributed to.
  using Payload = std::vector<SectionId>;
  void occupied(TimeNs a, TimeNs b, bool in_call);
  void entered(TimeNs t);
  void begun(TimeNs t, Payload& attributed);
  void priced(const PricedXfer& x, const Payload* attributed);

  [[nodiscard]] std::vector<SectionId> currentSections() const;

  SizeClasses classes_;

  std::vector<SectionReport> sections_;  // index == SectionId
  std::unordered_map<std::string, SectionId> section_ids_;
  std::vector<SectionId> section_stack_;  // active named sections

  Replay<Payload> replay_;

  std::int64_t case1_ = 0, case2_ = 0, case3_ = 0;
};

}  // namespace ovp::overlap
