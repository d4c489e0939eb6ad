#include "overlap/report.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace ovp::overlap {

const SectionReport* Report::findSection(std::string_view name) const {
  for (const SectionReport& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

void writeAccum(std::ostream& os, const char* label, const OverlapAccum& a) {
  os << "  " << label << ": transfers=" << a.transfers << " bytes=" << a.bytes
     << " data_transfer_time=" << util::humanDuration(a.data_transfer_time)
     << " min_overlapped=" << util::humanDuration(a.min_overlapped)
     << " max_overlapped=" << util::humanDuration(a.max_overlapped)
     << " min%=" << util::TextTable::num(a.minPct(), 1)
     << " max%=" << util::TextTable::num(a.maxPct(), 1) << '\n';
}

void writeSection(std::ostream& os, const SectionReport& s,
                  const SizeClasses& classes) {
  os << "section \"" << s.name << "\"\n";
  os << "  user_computation_time="
     << util::humanDuration(s.computation_time)
     << " communication_call_time="
     << util::humanDuration(s.communication_call_time)
     << " calls=" << s.calls << '\n';
  writeAccum(os, "all-sizes", s.total);
  for (std::size_t c = 0; c < s.by_class.size(); ++c) {
    if (s.by_class[c].transfers == 0) continue;
    writeAccum(os, classes.label(static_cast<int>(c)).c_str(), s.by_class[c]);
  }
}

std::string vciClassLabel(const VciStats& v, int k) {
  const std::vector<Bytes>& bounds = v.classes.bounds();
  if (bounds.empty()) return "all";
  // append(), not "<" + string: GCC 12 -O3 reports a false -Wrestrict there.
  const auto bound = [&](std::size_t i) { return std::to_string(bounds[i]); };
  const std::size_t n = bounds.size();
  if (k <= 0) return std::string("<").append(bound(0)).append("B");
  if (k >= static_cast<int>(n)) {
    return std::string(">=").append(bound(n - 1)).append("B");
  }
  const auto i = static_cast<std::size_t>(k);
  return std::string("[").append(bound(i - 1)).append("B,").append(
      bound(i)).append("B)");
}

void writeVci(std::ostream& os, const VciStats& v) {
  os << "vci channels=" << v.channels
     << " size_classes=" << v.classes.count() << '\n';
  for (int c = 0; c < v.channels; ++c) {
    for (int k = 0; k < v.classes.count(); ++k) {
      const VciChannelClass& row = v.at(c, k);
      if (!row.any()) continue;
      os << "  ch" << c << ' ' << vciClassLabel(v, k)
         << ": posts=" << row.posts << " deliveries=" << row.deliveries
         << " bytes=" << row.bytes
         << " o_send=" << util::humanDuration(row.o_send)
         << " o_recv=" << util::humanDuration(row.o_recv)
         << " gap=" << util::humanDuration(row.gap)
         << " link_wait=" << util::humanDuration(row.link_wait)
         << " incast_wait=" << util::humanDuration(row.incast_wait) << '\n';
    }
  }
}

}  // namespace

void Report::write(std::ostream& os) const {
  os << "# ovprof overlap report, rank " << rank << '\n';
  os << "monitored_time=" << util::humanDuration(monitored_time)
     << " events=" << events_logged << " drains=" << queue_drains << '\n';
  os << "bound_cases: same_call=" << case_same_call
     << " split_call=" << case_split_call
     << " inconclusive=" << case_inconclusive << '\n';
  if (xfer_below_range != 0 || xfer_above_range != 0) {
    os << "xfer_extrapolation: below_range=" << xfer_below_range
       << " above_range=" << xfer_above_range
       << " (transfer times outside the calibrated table are estimates)\n";
  }
  if (faults.any()) {
    os << "faults: attempts=" << faults.attempts << " drops=" << faults.drops
       << " corrupt=" << faults.corrupt_drops
       << " dup=" << faults.duplicates << '/' << faults.dup_discards
       << " reorders=" << faults.reorders
       << " retransmissions=" << faults.retransmissions
       << " timeouts=" << faults.timeouts
       << " retry_exhausted=" << faults.retry_exhausted
       << " acks=" << faults.acks_sent << '/' << faults.acks_dropped << '\n';
  }
  if (vci.any()) writeVci(os, vci);
  writeSection(os, whole, classes);
  for (const SectionReport& s : sections) writeSection(os, s, classes);
}

namespace {

void saveAccum(std::ostream& os, const OverlapAccum& a) {
  os << a.transfers << ' ' << a.bytes << ' ' << a.data_transfer_time << ' '
     << a.min_overlapped << ' ' << a.max_overlapped;
}

bool loadAccum(std::istream& is, OverlapAccum& a) {
  return static_cast<bool>(is >> a.transfers >> a.bytes >>
                           a.data_transfer_time >> a.min_overlapped >>
                           a.max_overlapped);
}

void saveSection(std::ostream& os, const SectionReport& s) {
  // Names are whitespace-free by construction; an empty name gets a
  // placeholder so the token stream stays parseable.
  os << "section.begin " << (s.name.empty() ? "<unnamed>" : s.name) << '\n';
  os << "times " << s.calls << ' ' << s.computation_time << ' '
     << s.communication_call_time << '\n';
  os << "total ";
  saveAccum(os, s.total);
  os << '\n';
  for (std::size_t c = 0; c < s.by_class.size(); ++c) {
    os << "class " << c << ' ';
    saveAccum(os, s.by_class[c]);
    os << '\n';
  }
  os << "section.end\n";
}

bool loadSection(std::istream& is, SectionReport& s, int nclasses) {
  std::string key;
  if (!(is >> key) || key != "times") return false;
  if (!(is >> s.calls >> s.computation_time >> s.communication_call_time)) {
    return false;
  }
  if (!(is >> key) || key != "total" || !loadAccum(is, s.total)) return false;
  s.by_class.assign(static_cast<std::size_t>(nclasses), OverlapAccum{});
  for (int c = 0; c < nclasses; ++c) {
    std::size_t idx = 0;
    if (!(is >> key) || key != "class" || !(is >> idx) ||
        idx != static_cast<std::size_t>(c) ||
        !loadAccum(is, s.by_class[idx])) {
      return false;
    }
  }
  if (!(is >> key) || key != "section.end") return false;
  return true;
}

}  // namespace

void Report::save(std::ostream& os) const {
  os << "ovprof-report-v1\n";
  os << "rank " << rank << '\n';
  os << "monitored_time " << monitored_time << '\n';
  os << "events " << events_logged << ' ' << queue_drains << '\n';
  os << "cases " << case_same_call << ' ' << case_split_call << ' '
     << case_inconclusive << '\n';
  if (xfer_below_range != 0 || xfer_above_range != 0) {
    // Written only when non-zero so in-range outputs stay byte-identical
    // with older readers/goldens; load() treats the line as optional.
    os << "extrapolation " << xfer_below_range << ' ' << xfer_above_range
       << '\n';
  }
  if (faults.any()) {
    // Written only when non-zero so fault-free outputs stay byte-identical
    // with pre-fault readers/goldens; load() treats the line as optional.
    os << "faults " << faults.attempts << ' ' << faults.drops << ' '
       << faults.corrupt_drops << ' ' << faults.duplicates << ' '
       << faults.dup_discards << ' ' << faults.reorders << ' '
       << faults.retransmissions << ' ' << faults.timeouts << ' '
       << faults.retry_exhausted << ' ' << faults.acks_sent << ' '
       << faults.acks_dropped << '\n';
  }
  if (vci.any()) {
    // Written only when the VCI layer ran so channel-free outputs stay
    // byte-identical with pre-VCI readers/goldens; load() treats the block
    // as optional.
    os << "vci " << vci.channels << ' ' << vci.classes.bounds().size();
    for (const Bytes b : vci.classes.bounds()) os << ' ' << b;
    os << '\n';
    for (const VciChannelClass& row : vci.rows) {
      os << "vcirow " << row.posts << ' ' << row.deliveries << ' '
         << row.bytes << ' ' << row.o_send << ' ' << row.o_recv << ' '
         << row.gap << ' ' << row.link_wait << ' ' << row.incast_wait << '\n';
    }
  }
  os << "classes";
  for (const Bytes b : classes.bounds()) os << ' ' << b;
  os << '\n';
  os << "sections " << sections.size() << '\n';
  saveSection(os, whole);
  for (const SectionReport& s : sections) saveSection(os, s);
}

namespace {

/// readBounds' count for "the whole stream".
constexpr std::size_t kAllBounds = static_cast<std::size_t>(-1);

/// Reads `count` size-class upper bounds and accepts them only strictly
/// ascending: rows are stored by class index, so bounds out of order would
/// file every row under another class.
bool readBounds(std::istream& is, std::size_t count, SizeClasses& out) {
  std::vector<Bytes> bounds;
  Bytes b = 0;
  while (bounds.size() < count && is >> b) {
    if (!bounds.empty() && b <= bounds.back()) return false;
    bounds.push_back(b);
  }
  if (count == kAllBounds ? !is.eof() : bounds.size() != count) return false;
  out = SizeClasses::fromBounds(std::move(bounds));
  return true;
}

/// Parses what Report::save produced into the default-constructed `r`.
bool parseReport(std::istream& is, Report& r) {
  std::string line, key;
  if (!std::getline(is, line) || util::trim(line) != "ovprof-report-v1") {
    return false;
  }
  if (!(is >> key >> r.rank) || key != "rank") return false;
  if (!(is >> key >> r.monitored_time) || key != "monitored_time") {
    return false;
  }
  if (!(is >> key >> r.events_logged >> r.queue_drains) || key != "events") {
    return false;
  }
  if (!(is >> key >> r.case_same_call >> r.case_split_call >>
        r.case_inconclusive) ||
      key != "cases") {
    return false;
  }
  if (!(is >> key)) return false;
  if (key == "extrapolation") {
    if (!(is >> r.xfer_below_range >> r.xfer_above_range)) return false;
    if (!(is >> key)) return false;
  }
  if (key == "faults") {
    FaultStats& f = r.faults;
    if (!(is >> f.attempts >> f.drops >> f.corrupt_drops >> f.duplicates >>
          f.dup_discards >> f.reorders >> f.retransmissions >> f.timeouts >>
          f.retry_exhausted >> f.acks_sent >> f.acks_dropped)) {
      return false;
    }
    if (!(is >> key)) return false;
  }
  if (key == "vci") {
    VciStats& v = r.vci;
    std::size_t nbounds = 0;
    if (!(is >> v.channels >> nbounds)) return false;
    if (v.channels < 1 || nbounds > 64) return false;
    if (!readBounds(is, nbounds, v.classes)) return false;
    // Counts read from the file are untrusted: rows and sections grow as
    // entries parse, so a huge count fails at the first missing entry.
    const std::size_t nrows = static_cast<std::size_t>(v.channels) *
                              static_cast<std::size_t>(v.classes.count());
    for (std::size_t k = 0; k < nrows; ++k) {
      VciChannelClass row;
      if (!(is >> key) || key != "vcirow") return false;
      if (!(is >> row.posts >> row.deliveries >> row.bytes >> row.o_send >>
            row.o_recv >> row.gap >> row.link_wait >> row.incast_wait)) {
        return false;
      }
      v.rows.push_back(row);
    }
    if (!(is >> key)) return false;
  }
  if (key != "classes") return false;
  std::getline(is, line);
  std::istringstream fields(line);
  if (!readBounds(fields, kAllBounds, r.classes)) return false;
  std::size_t nsections = 0;
  if (!(is >> key >> nsections) || key != "sections") return false;
  auto loadOne = [&](SectionReport& s) {
    std::string word;
    if (!(is >> word) || word != "section.begin") return false;
    if (!(is >> s.name)) return false;
    if (s.name == "<unnamed>") s.name.clear();
    return loadSection(is, s, r.classes.count());
  };
  if (!loadOne(r.whole)) return false;
  for (std::size_t k = 0; k < nsections; ++k) {
    SectionReport s;
    if (!loadOne(s)) return false;
    r.sections.push_back(std::move(s));
  }
  return true;
}

}  // namespace

bool Report::load(std::istream& is) {
  Report parsed;
  const bool ok = parseReport(is, parsed);
  *this = ok ? std::move(parsed) : Report{};
  return ok;
}

bool Report::saveFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  save(os);
  return static_cast<bool>(os);
}

bool Report::loadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return false;
  return load(is);
}

namespace {

void mergeSection(SectionReport& into, const SectionReport& from) {
  into.calls += from.calls;
  into.computation_time += from.computation_time;
  into.communication_call_time += from.communication_call_time;
  into.total += from.total;
  if (into.by_class.size() < from.by_class.size()) {
    into.by_class.resize(from.by_class.size());
  }
  for (std::size_t c = 0; c < from.by_class.size(); ++c) {
    into.by_class[c] += from.by_class[c];
  }
}

}  // namespace

void MergeAccumulator::add(const Report& r) {
  Report& merged = merged_;
  if (count_ == 0) {
    merged.classes = r.classes;
    merged.whole.name = r.whole.name;
  }
  ++count_;
  merged.monitored_time += r.monitored_time;
  merged.events_logged += r.events_logged;
  merged.queue_drains += r.queue_drains;
  merged.case_same_call += r.case_same_call;
  merged.case_split_call += r.case_split_call;
  merged.case_inconclusive += r.case_inconclusive;
  merged.xfer_below_range += r.xfer_below_range;
  merged.xfer_above_range += r.xfer_above_range;
  merged.faults += r.faults;
  merged.vci += r.vci;
  mergeSection(merged.whole, r.whole);
  for (const SectionReport& s : r.sections) {
    SectionReport* target = nullptr;
    for (SectionReport& m : merged.sections) {
      if (m.name == s.name) {
        target = &m;
        break;
      }
    }
    if (target == nullptr) {
      SectionReport fresh;
      fresh.name = s.name;
      fresh.by_class.resize(s.by_class.size());
      merged.sections.push_back(std::move(fresh));
      target = &merged.sections.back();
    }
    mergeSection(*target, s);
  }
}

Report MergeAccumulator::take() {
  Report out = std::move(merged_);
  merged_ = Report{};
  merged_.rank = -1;
  count_ = 0;
  return out;
}

Report mergeReports(const std::vector<Report>& reports) {
  MergeAccumulator acc;
  for (const Report& r : reports) acc.add(r);
  return acc.take();
}

}  // namespace ovp::overlap
