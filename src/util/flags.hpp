// Command-line flags for the bench, tool and example binaries.  Every
// binary must run with no arguments (paper defaults); flags exist so
// experiments can be re-run with different parameters.
//
// Each binary declares the flags it honours once, as a constant array of
// util::Flag handed to Flags::parse through a util::Cli.  parse rejects
// any flag that is not declared and any value that does not fit its
// declared kind, naming the flag; `-h`/`--help` prints usage generated from
// the same array.  The framework's --ovprof-* flags are shared
// declarations (kOvprof* below): a binary lists the ones it reads.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace ovp::util {

/// What a flag's value must look like.
enum class FlagKind {
  Switch,  ///< bare --name, or --name=0|1|true|false|yes|no
  Int,     ///< an integer >= Flag::min
  Number,  ///< a real number
  Text,    ///< any string; a bare --name means Flag::bare, when declared
  OneOf,   ///< one of the '|'-separated words in Flag::arg
};

/// No lower bound: the `min` of an Int flag any integer fits.
inline constexpr std::int64_t kAnyInt =
    std::numeric_limits<std::int64_t>::min();

/// One declared flag.  Build entries with the factories below.
struct Flag {
  std::string_view name;  ///< without the leading "--"
  FlagKind kind;
  /// The placeholder usage shows after '=' (FILE, N, ...); for OneOf, the
  /// accepted words themselves, '|'-separated.
  std::string_view arg;
  std::string_view help;  ///< one line
  std::int64_t min;       ///< Int: the smallest accepted value
  /// Text: the value a bare --name stands for; empty means the flag
  /// needs a value.
  std::string_view bare;
};

constexpr Flag switchFlag(std::string_view name, std::string_view help) {
  return {name, FlagKind::Switch, {}, help, kAnyInt, {}};
}
constexpr Flag intFlag(std::string_view name, std::string_view arg,
                       std::string_view help, std::int64_t min = kAnyInt) {
  return {name, FlagKind::Int, arg, help, min, {}};
}
constexpr Flag numberFlag(std::string_view name, std::string_view arg,
                          std::string_view help) {
  return {name, FlagKind::Number, arg, help, kAnyInt, {}};
}
constexpr Flag textFlag(std::string_view name, std::string_view arg,
                        std::string_view help, std::string_view bare = {}) {
  return {name, FlagKind::Text, arg, help, kAnyInt, bare};
}
constexpr Flag oneOfFlag(std::string_view name, std::string_view words,
                         std::string_view help) {
  return {name, FlagKind::OneOf, words, help, kAnyInt, {}};
}

/// A binary's command line: its usage synopsis ("nas_run",
/// "ovprof_check SKELETON [SKELETON2 ...]"), what it does, and every flag
/// it honours.  `flags` must outlive any Flags parsed against it; declare
/// the array at namespace scope.
struct Cli {
  std::string_view usage;
  std::string_view about;
  std::span<const Flag> flags;
};

/// The --help text for `cli`: the synopsis, `about`, and one line per
/// declared flag plus -h/--help.
[[nodiscard]] std::string usage(const Cli& cli);

class Flags {
 public:
  /// Parses argv of the form --name=value or --name against `cli`.
  /// Returns false after printing a message naming the argument when one
  /// is positional, is not declared, or has a value that does not fit its
  /// kind.  -h and --help set helpRequested().
  [[nodiscard]] bool parse(int argc, char** argv, const Cli& cli);

  /// parse(), then print usage and exit 0 on -h/--help, or exit 2 on a
  /// rejected argument.
  [[nodiscard]] static Flags parseOrExit(int argc, char** argv,
                                         const Cli& cli);

  /// The undeclared form, kept for perfbench/worker.cpp alone: on a Flags
  /// not parsed against a Cli, stores every --name[=value] unchecked, and
  /// get* reads any name.
  [[nodiscard]] bool parse(int argc, char** argv);

  /// Readers.  A flag absent from argv reads as `fallback`.  Reading a
  /// name the binary did not declare is a program error that fails in
  /// builds without NDEBUG.
  [[nodiscard]] std::int64_t getInt(std::string_view name,
                                    std::int64_t fallback) const;
  [[nodiscard]] double getDouble(std::string_view name, double fallback) const;
  /// For Text and OneOf flags; a bare Text flag reads as its `bare` value.
  [[nodiscard]] std::string getString(std::string_view name,
                                      std::string_view fallback) const;
  [[nodiscard]] bool getBool(std::string_view name, bool fallback) const;
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] bool helpRequested() const { return help_; }

 private:
  /// The declaration of `name`; null in the undeclared form, where any
  /// name may be read.  Asserts that a declared binary declared `name`.
  const Flag* declaration(std::string_view name) const;

  std::map<std::string, std::string, std::less<>> values_;
  std::span<const Flag> declared_flags_;
  bool declared_ = false;
  bool help_ = false;
};

// The framework's --ovprof-* flags: the one way to set each framework-wide
// switch (no environment variable stands in for one).
inline constexpr Flag kOvprofVerify = switchFlag(
    "ovprof-verify", "attach the event-stream verifier and misuse checker");
inline constexpr Flag kOvprofFault = textFlag(
    "ovprof-fault", "SPEC", "inject fabric faults, e.g. drop=0.05,seed=7");
inline constexpr Flag kOvprofTrace =
    textFlag("ovprof-trace", "FILE",
             "write a Chrome trace to FILE and its CSV to FILE.csv",
             "ovprof-trace.json");
inline constexpr Flag kOvprofTraceCapacity =
    intFlag("ovprof-trace-capacity", "N",
            "trace ring records per rank (default 524288)", 1);
inline constexpr Flag kOvprofTraceWindow =
    intFlag("ovprof-trace-window", "NS",
            "trace analysis window in virtual ns (default 1000000)", 1);
inline constexpr Flag kOvprofLint = switchFlag(
    "ovprof-lint", "lint the run's trace; findings fail the run");
inline constexpr Flag kOvprofLintJson =
    textFlag("ovprof-lint-json", "FILE", "also write lint findings as JSON",
             "ovprof-lint.json");
inline constexpr Flag kOvprofCheckJson =
    textFlag("ovprof-check-json", "FILE", "also write the findings as JSON",
             "ovprof-check.json");
inline constexpr Flag kOvprofModel =
    textFlag("ovprof-model", "FILE", "save a model sample for ovprof_model",
             "ovprof-model.sample");
inline constexpr Flag kOvprofModelParam = numberFlag(
    "ovprof-model-param", "X", "the sample's sweep parameter (default: mean "
    "bytes per transfer)");
inline constexpr Flag kOvprofVci = textFlag(
    "ovprof-vci", "N[,POLICY]",
    "N channels per NIC; POLICY tag-hash, round-robin, per-peer, explicit",
    "2");
inline constexpr Flag kOvprofVciRails = intFlag(
    "ovprof-vci-rails", "R", "rails per node port (default 1)", 1);
inline constexpr Flag kOvprofWorkers = intFlag(
    "ovprof-workers", "N", "engine threads; output is identical to N=1", 1);

}  // namespace ovp::util
