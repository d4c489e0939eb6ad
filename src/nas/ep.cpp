#include "nas/ep.hpp"

#include <cmath>
#include <vector>

#include "nas/class_tables.hpp"

namespace ovp::nas {

namespace {

// NPB's linear congruential generator: x_{k+1} = a*x_k mod 2^46.
constexpr double kR23 = 0x1p-23;
constexpr double kR46 = kR23 * kR23;
constexpr double kT23 = 0x1p23;
constexpr double kT46 = kT23 * kT23;
constexpr double kA = 1220703125.0;  // 5^13
constexpr double kSeed = 271828183.0;

/// One LCG step: returns the next seed and writes the uniform deviate.
double lcgNext(double& x, double a) {
  // Double-precision exact 46-bit modular multiply (NPB's randlc).
  const double t1a = kR23 * a;
  const double a1 = static_cast<double>(static_cast<long long>(t1a));
  const double a2 = a - kT23 * a1;
  const double t1x = kR23 * x;
  const double x1 = static_cast<double>(static_cast<long long>(t1x));
  const double x2 = x - kT23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = static_cast<double>(static_cast<long long>(kR23 * t1));
  const double z = t1 - kT23 * t2;
  const double t3 = kT23 * z + a2 * x2;
  const double t4 = static_cast<double>(static_cast<long long>(kR46 * t3));
  x = t3 - kT46 * t4;
  return kR46 * x;
}

/// Seed after skipping 2*k sequence elements (each pair consumes two):
/// multiplies the seed by a^(2k) mod 2^46 via binary exponentiation.
double skipAhead(std::int64_t k, double seed) {
  double x = seed;
  double a = kA;
  std::int64_t n = 2 * k;
  while (n > 0) {
    if (n & 1) (void)lcgNext(x, a);
    // square a (mod 2^46) using the same exact multiply with x := a.
    double tmp = a;
    (void)lcgNext(tmp, a);
    a = tmp;
    n >>= 1;
  }
  return x;
}

constexpr int kAnnuli = 10;
constexpr double kLcgFlopsPerPair = 80.0;  // generation + rejection test

}  // namespace

NasResult runEp(const NasParams& params) {
  const std::int64_t total_pairs =
      params.iterations > 0 ? static_cast<std::int64_t>(params.iterations)
                            : tables::epPairs(params.cls);
  mpi::Machine machine(makeJobConfig(params));

  double checksum = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const int P = mpi.size();
    const Rank me = mpi.rank();
    const BlockDist dist =
        blockDistribute(static_cast<int>(total_pairs), P);
    const std::int64_t my_first = dist.start[static_cast<std::size_t>(me)];
    const std::int64_t my_pairs = dist.size[static_cast<std::size_t>(me)];

    double x = skipAhead(my_first, kSeed);
    double sx = 0, sy = 0;
    double counts[kAnnuli] = {0};
    std::int64_t accepted = 0;
    for (std::int64_t i = 0; i < my_pairs; ++i) {
      const double u1 = 2.0 * lcgNext(x, kA) - 1.0;
      const double u2 = 2.0 * lcgNext(x, kA) - 1.0;
      const double t = u1 * u1 + u2 * u2;
      if (t > 1.0) continue;  // rejected pair
      const double factor = std::sqrt(-2.0 * std::log(t) / t);
      const double gx = u1 * factor;
      const double gy = u2 * factor;
      sx += gx;
      sy += gy;
      const int annulus = static_cast<int>(
          std::max(std::fabs(gx), std::fabs(gy)));
      if (annulus < kAnnuli) counts[annulus] += 1.0;
      ++accepted;
    }
    mpi.compute(params.cost.flops(
        static_cast<std::int64_t>(kLcgFlopsPerPair *
                                  static_cast<double>(my_pairs))));

    // The entire communication of EP: three small reductions.
    double sums_local[2] = {sx, sy};
    double sums[2] = {0, 0};
    mpi.allreduce(sums_local, sums, 2, mpi::Op::Sum);
    double counts_global[kAnnuli] = {0};
    mpi.allreduce(counts, counts_global, kAnnuli, mpi::Op::Sum);
    const double acc_local = static_cast<double>(accepted);
    double acc_global = 0;
    mpi.allreduce(&acc_local, &acc_global, 1, mpi::Op::Sum);

    if (me == 0) {
      checksum = sums[0] + sums[1];
      double tally = 0;
      for (const double c : counts_global) tally += c;
      if (tally != acc_global || !std::isfinite(checksum)) verified = false;
      if (acc_global <= 0 ||
          acc_global > static_cast<double>(total_pairs)) {
        verified = false;
      }
    }
  });

  return nasResult(machine, checksum, verified);
}

}  // namespace ovp::nas
