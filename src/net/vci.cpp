#include "net/vci.hpp"

#include <charconv>

namespace ovp::net {

const char* VciParams::policyName(VciPolicy p) {
  switch (p) {
    case VciPolicy::TagHash:
      return "tag-hash";
    case VciPolicy::RoundRobin:
      return "round-robin";
    case VciPolicy::PerPeer:
      return "per-peer";
    case VciPolicy::Explicit:
      return "explicit";
  }
  return "?";
}

bool VciParams::parsePolicy(std::string_view name, VciPolicy& out) {
  if (name == "tag-hash") {
    out = VciPolicy::TagHash;
  } else if (name == "round-robin") {
    out = VciPolicy::RoundRobin;
  } else if (name == "per-peer") {
    out = VciPolicy::PerPeer;
  } else if (name == "explicit") {
    out = VciPolicy::Explicit;
  } else {
    return false;
  }
  return true;
}

bool VciParams::parse(std::string_view spec, VciParams& out) {
  if (spec.empty()) return false;
  std::string_view count = spec;
  std::string_view policy;
  bool has_policy = false;
  if (const std::size_t comma = spec.find(','); comma != std::string_view::npos) {
    count = spec.substr(0, comma);
    policy = spec.substr(comma + 1);
    has_policy = true;
  }
  int channels = 0;
  const auto [ptr, ec] =
      std::from_chars(count.data(), count.data() + count.size(), channels);
  if (ec != std::errc() || ptr != count.data() + count.size()) return false;
  if (channels < 1 || channels > 64) return false;
  out.channels = channels;
  if (has_policy && !parsePolicy(policy, out.policy)) return false;
  if (out.classes.bounds().empty()) {
    out.classes = overlap::SizeClasses::shortLong(16384);
  }
  return true;
}

}  // namespace ovp::net
