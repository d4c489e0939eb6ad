// Message-size classification (paper Sec. 2.3).
//
// "A breakdown of [non-overlapped] time as a function of message size
// distribution, such as 'short' versus 'long', or a more detailed size
// distribution, will reveal the particular message transfers that are
// affecting application performance the most."  The framework supports both
// granularities: a two-class short/long split at a threshold, and any
// ascending list of class bounds.  The same type classifies the wire sizes
// of the NIC's per-channel rows (net::VciParams, overlap::VciStats).
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace ovp::overlap {

class SizeClasses {
 public:
  /// Two classes: [0, threshold) = "short", [threshold, inf) = "long".
  [[nodiscard]] static SizeClasses shortLong(Bytes threshold);

  /// Single catch-all class (no breakdown).
  [[nodiscard]] static SizeClasses single();

  /// Arbitrary ascending upper bounds (serialization support).
  [[nodiscard]] static SizeClasses fromBounds(std::vector<Bytes> bounds);

  /// The class upper bounds (empty for the single catch-all class).
  [[nodiscard]] const std::vector<Bytes>& bounds() const {
    return upper_bounds_;
  }

  /// Index of the class containing `size`, in [0, count()).
  [[nodiscard]] int classOf(Bytes size) const;

  [[nodiscard]] int count() const {
    return static_cast<int>(upper_bounds_.size()) + 1;
  }

  /// Human-readable label of class i.
  [[nodiscard]] std::string label(int i) const;

  [[nodiscard]] bool operator==(const SizeClasses&) const = default;

 private:
  // Class i covers [upper_bounds_[i-1], upper_bounds_[i]); the final class
  // is unbounded above.
  std::vector<Bytes> upper_bounds_;
};

}  // namespace ovp::overlap
