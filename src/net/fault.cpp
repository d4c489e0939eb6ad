#include "net/fault.hpp"

#include <initializer_list>
#include <sstream>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ovp::net {

namespace {

using util::parseDouble;
using util::parseInt;

bool applyKey(FaultModel& m, std::string_view key, std::string_view value) {
  std::int64_t i = 0;
  if (key == "drop") return parseDouble(value, m.rates.drop);
  if (key == "corrupt") return parseDouble(value, m.rates.corrupt);
  if (key == "dup" || key == "duplicate") {
    return parseDouble(value, m.rates.duplicate);
  }
  if (key == "reorder") return parseDouble(value, m.rates.reorder);
  if (key == "jitter") {
    if (!parseInt(value, i) || i < 0) return false;
    m.rates.jitter = i;
    return true;
  }
  if (key == "seed") {
    if (!parseInt(value, i)) return false;
    m.seed = static_cast<std::uint64_t>(i);
    return true;
  }
  if (key == "retries") {
    if (!parseInt(value, i) || i < 0 || i != static_cast<int>(i)) {
      return false;
    }
    m.max_retries = static_cast<int>(i);
    return true;
  }
  if (key == "rto") {
    if (!parseInt(value, i) || i <= 0) return false;
    m.rto_base = i;
    return true;
  }
  return false;
}

bool rateValid(double r) { return r >= 0.0 && r <= 1.0; }

}  // namespace

double FaultModel::uniform(Rank src, Rank dst, std::int64_t tx_seq,
                           int attempt, FaultDie purpose) const {
  // Counter-based: each key field is folded into a SplitMix64 chain, so
  // keys differing in any field give independent-looking words.
  std::uint64_t h = seed;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)),
        static_cast<std::uint64_t>(tx_seq),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt)),
        static_cast<std::uint64_t>(purpose)}) {
    h = util::splitmix64(h + (v + 1) * util::kGoldenGamma);
  }
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultModel::parse(std::string_view spec, FaultModel& out) {
  FaultModel m = out;  // keep caller defaults for unmentioned keys
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      // Bare number: shorthand for drop=<number>.
      if (!parseDouble(item, m.rates.drop)) return false;
      continue;
    }
    if (!applyKey(m, item.substr(0, eq), item.substr(eq + 1))) return false;
  }
  if (!rateValid(m.rates.drop) || !rateValid(m.rates.corrupt) ||
      !rateValid(m.rates.duplicate) || !rateValid(m.rates.reorder)) {
    return false;
  }
  out = m;
  return true;
}

std::string FaultModel::describe() const {
  std::ostringstream os;
  os << "drop=" << rates.drop << " corrupt=" << rates.corrupt
     << " dup=" << rates.duplicate << " reorder=" << rates.reorder
     << " jitter=" << rates.jitter << "ns seed=" << seed
     << " retries=" << max_retries << " rto=" << rto_base << "ns";
  if (!links.empty()) os << " (+" << links.size() << " link overrides)";
  return os.str();
}

}  // namespace ovp::net
