// Minimal --key=value command-line flag parser for bench and example
// binaries.  Every binary must run with no arguments (paper defaults); flags
// exist so experiments can be re-run with different parameters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace ovp::util {

class Flags {
 public:
  /// Parses argv of the form --name=value or --name (boolean true).
  /// Unrecognized positional arguments are an error (returns false), as is
  /// any --ovprof-* flag outside the framework's documented set (a typo like
  /// --ovprof-tracing would otherwise silently run without tracing).
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] std::int64_t getInt(std::string_view name,
                                    std::int64_t fallback) const;
  [[nodiscard]] double getDouble(std::string_view name, double fallback) const;
  [[nodiscard]] std::string getString(std::string_view name,
                                      std::string_view fallback) const;
  [[nodiscard]] bool getBool(std::string_view name, bool fallback) const;
  [[nodiscard]] bool has(std::string_view name) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

// The --ovprof-* flags are the one way to set each framework-wide switch;
// no environment variable stands in for them.

/// Standard switch for the analysis layer: true when --ovprof-verify[=1]
/// was passed.  Lets any example/bench binary enable the StreamVerifier and
/// UsageChecker without recompiling.
[[nodiscard]] bool verifyRequested(const Flags& flags);

/// Standard switch for fabric fault injection: the spec string from
/// --ovprof-fault=<spec>; empty when the flag is absent.  The spec grammar
/// is net::FaultModel::parse's ("drop=0.05,jitter=2000,seed=7", a bare
/// number meaning drop=<number>).
[[nodiscard]] std::string faultSpecRequested(const Flags& flags);

/// Standard switch for always-on tracing: the output path from
/// --ovprof-trace=FILE; empty when the flag is absent.  The binary writes
/// a Chrome trace-event JSON to FILE and a lossless CSV to FILE.csv.
[[nodiscard]] std::string traceSpecRequested(const Flags& flags);

/// Standard switch for the offline lint passes: true when --ovprof-lint[=1]
/// was passed.  The binary runs analysis::runLint over the collected trace
/// after the run and exits nonzero on Warning/Error findings.
[[nodiscard]] bool lintRequested(const Flags& flags);

/// Optional JSON sink for lint findings: the path from
/// --ovprof-lint-json=FILE; empty when the flag is absent.
[[nodiscard]] std::string lintJsonPathRequested(const Flags& flags);

/// Optional JSON sink for ovprof_check findings: the path from
/// --ovprof-check-json=FILE; empty when the flag is absent.
[[nodiscard]] std::string checkJsonPathRequested(const Flags& flags);

/// Model-sample sink: the path from --ovprof-model=FILE; empty when the
/// flag is absent.  The binary saves a model::RunSample (the merged job
/// report plus sweep metadata) to FILE after the run, for ovprof_model.
[[nodiscard]] std::string modelSamplePathRequested(const Flags& flags);

/// Sweep parameter recorded in the model sample: the value from
/// --ovprof-model-param=X; 0.0 when the flag is absent (the sample then
/// defaults to mean bytes per transfer).
[[nodiscard]] double modelParamRequested(const Flags& flags);

/// Multi-VCI fabric spec: the string from --ovprof-vci=N[,policy]; empty
/// when the flag is absent.  The grammar is net::VciParams::parse's ("2",
/// "4,round-robin"); a bare --ovprof-vci means "2".
[[nodiscard]] std::string vciSpecRequested(const Flags& flags);

/// Physical rails per node port: the value from --ovprof-vci-rails=R; 1 when
/// the flag is absent (single-rail timing, identical to the historical
/// fabric for any channel count).
[[nodiscard]] int vciRailsRequested(const Flags& flags);

/// Engine worker-thread count: the value from --ovprof-workers=N; 1 when
/// the flag is absent.  Parallel runs are bit-identical to sequential ones,
/// so this only trades host time for threads.
[[nodiscard]] int workersRequested(const Flags& flags);

/// True when --help (or -h as the sole positional-looking argument) was
/// passed.  parse() accepts "-h" specially for this.
[[nodiscard]] bool helpRequested(const Flags& flags);

/// One paragraph describing the framework-wide --ovprof-* flags, for the
/// --help text of any bench/example binary.
[[nodiscard]] const char* ovprofHelpText();

}  // namespace ovp::util
