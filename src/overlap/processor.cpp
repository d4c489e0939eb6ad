#include "overlap/processor.hpp"

#include <utility>

namespace ovp::overlap {

Processor::Processor(const XferTimeTable& table, SizeClasses classes)
    : classes_(std::move(classes)), replay_(table) {
  SectionReport whole;
  whole.name = "<all>";
  whole.by_class.resize(static_cast<std::size_t>(classes_.count()));
  sections_.push_back(std::move(whole));
}

SectionId Processor::internSection(std::string_view name) {
  const auto it = section_ids_.find(std::string(name));
  if (it != section_ids_.end()) return it->second;
  const SectionId id = static_cast<SectionId>(sections_.size());
  SectionReport acc;
  acc.name = std::string(name);
  acc.by_class.resize(static_cast<std::size_t>(classes_.count()));
  sections_.push_back(std::move(acc));
  section_ids_.emplace(std::string(name), id);
  return id;
}

std::string_view Processor::sectionName(SectionId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= sections_.size()) return {};
  return sections_[static_cast<std::size_t>(id)].name;
}

std::vector<SectionId> Processor::currentSections() const {
  std::vector<SectionId> ids;
  ids.reserve(section_stack_.size() + 1);
  ids.push_back(kSectionAll);
  ids.insert(ids.end(), section_stack_.begin(), section_stack_.end());
  return ids;
}

void Processor::occupied(TimeNs a, TimeNs b, bool in_call) {
  for (SectionId id : currentSections()) {
    SectionReport& acc = sections_[static_cast<std::size_t>(id)];
    (in_call ? acc.communication_call_time : acc.computation_time) += b - a;
  }
}

void Processor::entered(TimeNs /*t*/) {
  for (SectionId id : currentSections()) {
    ++sections_[static_cast<std::size_t>(id)].calls;
  }
}

void Processor::begun(TimeNs /*t*/, Payload& attributed) {
  attributed = currentSections();
}

void Processor::priced(const PricedXfer& x, const Payload* attributed) {
  if (!x.in.begin_seen || !x.in.end_seen) {
    ++case3_;
  } else if (x.in.same_call) {
    ++case1_;
  } else {
    ++case2_;
  }
  // An END with no observed BEGIN goes to the sections active at the END.
  const Payload at_end = attributed != nullptr ? Payload{} : currentSections();
  const int cls = classes_.classOf(x.size);
  for (SectionId id : attributed != nullptr ? *attributed : at_end) {
    SectionReport& acc = sections_[static_cast<std::size_t>(id)];
    acc.total.addTransfer(x.size, x.in.xfer_time, x.bounds);
    acc.by_class[static_cast<std::size_t>(cls)].addTransfer(
        x.size, x.in.xfer_time, x.bounds);
  }
}

void Processor::consume(const Event& e) {
  replay_.consume(e, *this);
  if (e.type == EventType::SectionBegin) {
    section_stack_.push_back(static_cast<SectionId>(e.id));
  } else if (e.type == EventType::SectionEnd && !section_stack_.empty()) {
    section_stack_.pop_back();
  }
}

Report Processor::finalize(Rank rank, TimeNs end_time) {
  // Transfers whose END was never observed are inconclusive (case 3).
  replay_.finish(end_time, *this);

  Report r;
  r.rank = rank;
  r.classes = classes_;
  r.monitored_time = replay_.monitoredTime();
  r.case_same_call = case1_;
  r.case_split_call = case2_;
  r.case_inconclusive = case3_;
  r.xfer_below_range = replay_.belowRange();
  r.xfer_above_range = replay_.aboveRange();
  r.whole = sections_.front();
  for (std::size_t i = 1; i < sections_.size(); ++i) {
    // Assign into a fresh report, then grow the vector: the sizes and order
    // of these allocations reach IS's output until registrations follow
    // buffer lifetimes (ROADMAP item 1).
    SectionReport s;
    s = sections_[i];
    r.sections.push_back(std::move(s));
  }
  return r;
}

}  // namespace ovp::overlap
