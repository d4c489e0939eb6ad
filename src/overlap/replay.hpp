// The paper's data-processing state machine (Sec. 2.2-2.4), written once.
//
// A Replay folds one rank's monitor events, in time order, into running
// integrals of user-computation and in-library time, the index of the
// current library call, the disabled time and one record per open
// transfer.  At each XFER_END, and in finish() for every transfer still
// open, it prices the transfer from the a-priori table, computes the
// three-case bounds and hands them to a sink.  The live Processor, the
// offline window analysis, the advisor and the Chrome export are its sinks.
// Attribution is O(1) per transfer: the integrals are snapshot at BEGIN and
// differenced at END.  Both stamps are in the same call when the END falls
// inside a call and no CALL_ENTER came after the BEGIN.
//
// The sink is passed by reference into consume() and finish(), so dispatch
// is static.  It provides:
//
//   using Payload = ...;  // per-transfer state only this sink needs
//   void occupied(TimeNs a, TimeNs b, bool in_call);  // monitored [a, b)
//   void entered(TimeNs t);                           // CALL_ENTER at t
//   void begun(TimeNs t, Payload& p);                 // XFER_BEGIN at t
//   void priced(const PricedXfer& x, const Payload* p);  // null: no BEGIN
#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "overlap/bounds.hpp"
#include "overlap/events.hpp"
#include "overlap/xfer_table.hpp"
#include "util/types.hpp"

namespace ovp::overlap {

/// One transfer as the replay hands it to its sink.
struct PricedXfer {
  TransferId id = kInvalidTransfer;
  Bytes size = 0;
  BoundsInput in;
  Bounds bounds;
  TimeNs end = 0;            // END time, or the close time in finish()
  bool end_in_call = false;  // whether the END fell inside a library call
};

template <typename Payload>
class Replay {
 public:
  explicit Replay(const XferTimeTable& table) : table_(&table) {}

  /// Folds one event.  Events must arrive in non-decreasing time order.
  template <typename Sink>
  void consume(const Event& e, Sink& sink) {
    advanceTo(e.time, sink);
    switch (e.type) {
      case EventType::CallEnter:
        in_call_ = true;
        ++call_index_;
        sink.entered(e.time);
        break;
      case EventType::CallExit:
        in_call_ = false;
        break;
      case EventType::XferBegin: {
        Open x{e.size, comp_cum_, noncomp_cum_, call_index_, Payload{}};
        sink.begun(e.time, x.payload);
        open_.emplace(e.id, std::move(x));
        break;
      }
      case EventType::XferEnd: {
        const auto it = open_.find(e.id);
        if (it == open_.end()) {
          // END with no observed BEGIN: the paper's case 3 (e.g. an eagerly
          // received message whose send initiation was invisible).
          sink.priced(price(e.id, e.size, {.end_seen = true}, e.time),
                      nullptr);
          break;
        }
        const Open& x = it->second;
        const BoundsInput in{
            .begin_seen = true,
            .end_seen = true,
            .same_call = in_call_ && x.call_at_begin == call_index_,
            .computation = comp_cum_ - x.comp_at_begin,
            .noncomputation = noncomp_cum_ - x.noncomp_at_begin};
        sink.priced(price(e.id, x.size, in, e.time), &x.payload);
        open_.erase(it);
        break;
      }
      case EventType::Disable:
      case EventType::Enable:
        disabled_ = e.type == EventType::Disable;
        break;
      case EventType::SectionBegin:
      case EventType::SectionEnd:
        break;  // sections are the sink's business
    }
  }

  /// Advances to `end_time` (when later) and closes every open transfer as
  /// inconclusive (case 3).  Feed no further events afterwards.
  template <typename Sink>
  void finish(TimeNs end_time, Sink& sink) {
    if (started_ && end_time > last_time_) advanceTo(end_time, sink);
    for (const auto& [id, x] : open_) {
      sink.priced(price(id, x.size, {.begin_seen = true}, last_time_),
                  &x.payload);
    }
    open_.clear();
  }

  [[nodiscard]] std::size_t openTransfers() const { return open_.size(); }
  /// First to last event, disabled intervals excluded.
  [[nodiscard]] DurationNs monitoredTime() const {
    return started_ ? (last_time_ - first_time_) - disabled_total_ : 0;
  }
  /// Pricings extrapolated below / above the table's calibrated range.
  [[nodiscard]] std::int64_t belowRange() const { return below_range_; }
  [[nodiscard]] std::int64_t aboveRange() const { return above_range_; }

 private:
  struct Open {
    Bytes size;
    DurationNs comp_at_begin;
    DurationNs noncomp_at_begin;
    std::int64_t call_at_begin;
    Payload payload;
  };

  template <typename Sink>
  void advanceTo(TimeNs t, Sink& sink) {
    if (!started_) {
      started_ = true;
      first_time_ = last_time_ = t;
      return;
    }
    assert(t >= last_time_ && "events must be time-ordered");
    const TimeNs a = last_time_;
    last_time_ = t;
    if (t == a) return;
    if (disabled_) {
      disabled_total_ += t - a;
      return;
    }
    (in_call_ ? noncomp_cum_ : comp_cum_) += t - a;
    sink.occupied(a, t, in_call_);
  }

  PricedXfer price(TransferId id, Bytes size, BoundsInput in, TimeNs end) {
    const XferTimeTable::Lookup lu = table_->lookupEx(size);
    below_range_ += lu.below_range ? 1 : 0;
    above_range_ += lu.above_range ? 1 : 0;
    in.xfer_time = lu.time;
    return {id, size, in, computeBounds(in), end, in_call_};
  }

  const XferTimeTable* table_;
  std::unordered_map<TransferId, Open> open_;
  bool started_ = false;
  bool in_call_ = false;
  bool disabled_ = false;
  TimeNs last_time_ = 0;
  TimeNs first_time_ = 0;
  DurationNs comp_cum_ = 0;
  DurationNs noncomp_cum_ = 0;
  DurationNs disabled_total_ = 0;
  std::int64_t call_index_ = 0;
  std::int64_t below_range_ = 0;
  std::int64_t above_range_ = 0;
};

}  // namespace ovp::overlap
