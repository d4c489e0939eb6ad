// Determinism regression: running the same NAS kernel twice with identical
// (FabricParams, fault seed) must produce bit-identical event streams and
// reports; a different fault seed must diverge.  This pins the engine's
// (time, src, seq) event ordering and the counter-based fault dice (one
// hash per transmission attempt, no shared stream) end to end.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "nas/cg.hpp"
#include "nas/ft.hpp"

namespace ovp::nas {
namespace {

/// Everything observable about a run, as one string: virtual finish time,
/// checksum bits, and every rank's exact serialized report.
std::string fingerprint(const NasResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.time << ' ' << r.verified << ' ' << r.checksum << '\n';
  for (const overlap::Report& rep : r.reports) {
    rep.save(os);
  }
  return os.str();
}

NasParams lossyParams(std::uint64_t seed) {
  NasParams p;
  p.nranks = 4;
  p.cls = Class::S;
  p.verify = true;
  p.fabric.fault.rates.drop = 0.03;
  p.fabric.fault.rates.jitter = 1500;
  p.fabric.fault.seed = seed;
  return p;
}

TEST(Determinism, SameSeedBitIdenticalCg) {
  const NasResult a = runCg(lossyParams(11));
  const NasResult b = runCg(lossyParams(11));
  ASSERT_TRUE(a.verified);
  ASSERT_TRUE(b.verified);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // Event-stream identity, not just aggregate identity.
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].events_logged, b.reports[i].events_logged);
    EXPECT_EQ(a.reports[i].queue_drains, b.reports[i].queue_drains);
  }
}

TEST(Determinism, DifferentSeedDivergesCg) {
  const NasResult a = runCg(lossyParams(11));
  const NasResult b = runCg(lossyParams(12));
  ASSERT_TRUE(a.verified);
  ASSERT_TRUE(b.verified);  // correctness must hold for every seed...
  EXPECT_NE(fingerprint(a), fingerprint(b));  // ...but timing must not
}

TEST(Determinism, LosslessRunsAreBitIdenticalToo) {
  NasParams p;
  p.nranks = 4;
  p.cls = Class::S;
  const NasResult a = runCg(p);
  const NasResult b = runCg(p);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Determinism, SameSeedBitIdenticalFt) {
  // A second kernel with a different communication shape (all-to-all).
  NasParams p;
  p.nranks = 4;
  p.cls = Class::S;
  p.fabric.fault.rates.drop = 0.02;
  p.fabric.fault.rates.duplicate = 0.02;
  p.fabric.fault.seed = 23;
  const NasResult a = runFt(p);
  const NasResult b = runFt(p);
  ASSERT_TRUE(a.verified);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

}  // namespace
}  // namespace ovp::nas
