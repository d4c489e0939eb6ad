#include "trace/collector.hpp"

#include <algorithm>

namespace ovp::trace {

namespace {

using overlap::EventType;

// Monitor-origin records carry their event type's own value, so
// onMonitorEvent and replayRank convert between the two by a cast.
constexpr bool sameKind(RecordKind k, EventType t) {
  return static_cast<int>(k) == static_cast<int>(t);
}
static_assert(sameKind(RecordKind::CallEnter, EventType::CallEnter));
static_assert(sameKind(RecordKind::CallExit, EventType::CallExit));
static_assert(sameKind(RecordKind::XferBegin, EventType::XferBegin));
static_assert(sameKind(RecordKind::XferEnd, EventType::XferEnd));
static_assert(sameKind(RecordKind::SectionBegin, EventType::SectionBegin));
static_assert(sameKind(RecordKind::SectionEnd, EventType::SectionEnd));
static_assert(sameKind(RecordKind::Disable, EventType::Disable));
static_assert(sameKind(RecordKind::Enable, EventType::Enable));

}  // namespace

Collector::Collector(const CollectorConfig& cfg, int nranks) {
  rings_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) rings_.emplace_back(cfg.ring_capacity);
  end_times_.assign(static_cast<std::size_t>(nranks), 0);
  section_names_.resize(static_cast<std::size_t>(nranks));
  segments_.resize(static_cast<std::size_t>(nranks));
}

std::int32_t Collector::registerSegment(Rank owner, const void* base,
                                        Bytes bytes) {
  auto& segs = segments_[static_cast<std::size_t>(owner)];
  const auto* b = static_cast<const std::byte*>(base);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].base == b && segs[i].bytes == bytes) {
      return static_cast<std::int32_t>(i);
    }
  }
  segs.push_back({b, bytes});
  return static_cast<std::int32_t>(segs.size() - 1);
}

Collector::SegmentRef Collector::resolveSegment(Rank owner, const void* p,
                                                Bytes n) const {
  if (owner < 0 || static_cast<std::size_t>(owner) >= segments_.size()) {
    return {};
  }
  const auto& segs = segments_[static_cast<std::size_t>(owner)];
  const auto* lo = static_cast<const std::byte*>(p);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Segment& s = segs[i];
    if (s.base == nullptr || lo < s.base) continue;
    const std::int64_t off = lo - s.base;
    if (off + n <= s.bytes) {
      return {static_cast<std::int32_t>(i), off};
    }
  }
  return {};
}

std::int32_t Collector::segmentCount(Rank owner) const {
  if (owner < 0 || static_cast<std::size_t>(owner) >= segments_.size()) {
    return 0;
  }
  return static_cast<std::int32_t>(
      segments_[static_cast<std::size_t>(owner)].size());
}

void Collector::restoreSegment(Rank owner, Bytes bytes) {
  segments_[static_cast<std::size_t>(owner)].push_back({nullptr, bytes});
}

Bytes Collector::segmentBytes(Rank owner, std::int32_t seg) const {
  if (owner < 0 || static_cast<std::size_t>(owner) >= segments_.size()) {
    return 0;
  }
  const auto& segs = segments_[static_cast<std::size_t>(owner)];
  if (seg < 0 || static_cast<std::size_t>(seg) >= segs.size()) return 0;
  return segs[static_cast<std::size_t>(seg)].bytes;
}

void Collector::onMonitorEvent(Rank r, const overlap::Event& e) {
  Record rec;
  rec.kind = static_cast<RecordKind>(e.type);
  rec.rank = r;
  rec.time = e.time;
  rec.id = e.id;
  rec.bytes = e.size;
  push(r, rec);
}

void Collector::noteSectionName(Rank r, std::int64_t id,
                                std::string_view name) {
  auto& names = section_names_[static_cast<std::size_t>(r)];
  names.emplace(id, std::string(name));
}

std::string_view Collector::sectionName(Rank r, std::int64_t id) const {
  const auto& names = section_names_[static_cast<std::size_t>(r)];
  const auto it = names.find(id);
  return it == names.end() ? std::string_view{} : std::string_view(it->second);
}

TimeNs Collector::jobEndTime() const {
  TimeNs end = 0;
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    end = std::max(end, end_times_[r]);
    const TraceRing& ring = rings_[r];
    if (ring.size() > 0) end = std::max(end, ring.at(ring.size() - 1).time);
  }
  return end;
}

std::int64_t Collector::recordedTotal() const {
  std::int64_t n = 0;
  for (const TraceRing& ring : rings_) {
    n += static_cast<std::int64_t>(ring.size());
  }
  return n;
}

std::int64_t Collector::droppedTotal() const {
  std::int64_t n = 0;
  for (const TraceRing& ring : rings_) n += ring.dropped();
  return n;
}

}  // namespace ovp::trace
