#include "overlap/size_classes.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace ovp::overlap {

SizeClasses SizeClasses::shortLong(Bytes threshold) {
  SizeClasses c;
  c.upper_bounds_ = {threshold};
  return c;
}

SizeClasses SizeClasses::single() { return SizeClasses{}; }

SizeClasses SizeClasses::fromBounds(std::vector<Bytes> bounds) {
  SizeClasses c;
  std::sort(bounds.begin(), bounds.end());
  c.upper_bounds_ = std::move(bounds);
  return c;
}

int SizeClasses::classOf(Bytes size) const {
  const auto it =
      std::upper_bound(upper_bounds_.begin(), upper_bounds_.end(), size);
  return static_cast<int>(it - upper_bounds_.begin());
}

std::string SizeClasses::label(int i) const {
  if (upper_bounds_.empty()) return "all";
  // append(), not "<" + string: GCC 12 -O3 reports a false -Wrestrict there.
  const auto bytes = [&](std::size_t k) {
    return util::humanBytes(upper_bounds_[k]);
  };
  const auto k = static_cast<std::size_t>(i);
  if (i == 0) return std::string("<").append(bytes(0));
  if (i == count() - 1) return std::string(">=").append(bytes(k - 1));
  return std::string("[").append(bytes(k - 1)).append(",").append(
      bytes(k)).append(")");
}

}  // namespace ovp::overlap
