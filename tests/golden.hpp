// Golden files for the tests: compareOrRegold checks a test's output
// against tests/golden/NAME byte for byte, or, with OVPROF_REGOLD=1 in the
// environment, rewrites the file from the output instead.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef OVPROF_GOLDEN_DIR
#error "OVPROF_GOLDEN_DIR must point at tests/golden"
#endif

namespace ovp {

inline std::string goldenPath(const std::string& name) {
  return std::string(OVPROF_GOLDEN_DIR) + "/" + name;
}

inline bool regoldRequested() {
  const char* env = std::getenv("OVPROF_REGOLD");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

inline void compareOrRegold(const std::string& name,
                            const std::string& actual) {
  const std::string path = goldenPath(name);
  if (regoldRequested()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(os)) << "cannot write " << path;
    os << actual;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(is))
      << "missing golden file " << path
      << " (regenerate with OVPROF_REGOLD=1)";
  std::ostringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "output drifted from " << path
      << "; if intentional, regenerate with OVPROF_REGOLD=1";
}

}  // namespace ovp
