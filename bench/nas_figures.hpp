// Shared helpers for the NAS characterization figures (paper Sec. 4).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "nas/common.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace ovp::bench {

using KernelFn = std::function<nas::NasResult(const nas::NasParams&)>;

/// The flags of the NAS figures that take a kernel's defaults (Figs.
/// 10-13, 18 and 19).
inline constexpr util::Flag kNasFigureFlags[] = {
    util::intFlag("iterations", "N",
                  "time steps per kernel run (0: the class default)", 0),
    util::switchFlag("csv", "print CSV instead of a table"),
};

/// Runs `kernel` for every (class, nranks) combination and prints the
/// paper-style characterization rows: aggregate min/max overlap
/// percentages plus the short/long message-size breakdown.
void runCharacterization(const char* figure, const char* description,
                         const KernelFn& kernel, mpi::Preset preset,
                         const std::vector<nas::Class>& classes,
                         const std::vector<int>& rank_counts, int argc,
                         char** argv);

/// Aggregates one size class across ranks.
[[nodiscard]] overlap::OverlapAccum aggregateSizeClass(
    const std::vector<overlap::Report>& reports, std::size_t cls);

}  // namespace ovp::bench
