// ovprof_sched: multi-job cluster campaigns with streaming aggregation.
//
// Takes a workload (explicit file or deterministic synthetic spec), runs it
// through the cluster scheduler on one shared simulated fabric
// (src/cluster/), streams the finalized per-job records to a versioned
// ovprof-agg-v1 file as jobs finish, and emits a per-job JSON summary with
// the interference metrics (slowdown vs solo baseline, fabric-contention
// share, overlap delta under co-location).
//
// WORKLOAD is either a workload file (`job <id> <kernel> <class> <nranks>
// <arrival_ns> <priority> <estimate_ns>` lines) or `synth:NJOBS[:SEED
// [:MAXRANKS]]` for the deterministic generator (MAXRANKS defaults to the
// machine size).  The aggregate stream goes to --agg (default
// ovprof-agg.txt); the JSON summary is rebuilt from that file one record at
// a time, so the tool never holds more than one finalized record in memory
// — with --spill it is bounded end to end regardless of campaign size.
// --rss-budget-mb asserts a peak-RSS ceiling after the run (exit 1 when
// exceeded) without touching the deterministic outputs.
//
// Exit code: 0 success, 1 RSS budget exceeded, 2 tool error (unreadable
// workload, bad flags, impossible job).  Scheduling is a pure function of
// the workload, so every output file is byte-identical across reruns and
// across --ovprof-workers counts.
#include <sys/resource.h>

#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/aggregator.hpp"
#include "cluster/job.hpp"
#include "cluster/runtime.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/workload.hpp"
#include "tool_main.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace ovp;

namespace {

constexpr util::Flag kFlags[] = {
    util::intFlag("nodes", "N", "machine nodes (default 8)", 1),
    util::intFlag("ranks-per-node", "N", "rank slots per node (default 4)", 1),
    util::oneOfFlag("policy", "backfill|fifo",
                    "scheduling policy (default backfill)"),
    util::switchFlag("shared-nodes",
                     "pack jobs slot by slot instead of onto whole nodes"),
    util::switchFlag("no-baselines",
                     "skip the solo idle-fabric runs that price interference"),
    util::textFlag("agg", "FILE",
                   "ovprof-agg-v1 aggregate stream (default ovprof-agg.txt)"),
    util::textFlag("json", "FILE", "per-job JSON summary (default stdout)"),
    util::textFlag("spill", "PREFIX",
                   "bound memory: spill sorted shards to PREFIX.*, then merge"),
    util::intFlag("shard-jobs", "N", "records per spilled shard (default 64)",
                  1),
    util::textFlag("launch-log", "FILE", "write the launch schedule to FILE"),
    util::textFlag("write-workload", "FILE",
                   "save the resolved workload in the file format"),
    util::intFlag("rss-budget-mb", "MB",
                  "exit 1 when peak RSS exceeds MB (0: no budget)", 0),
    util::kOvprofWorkers,
    util::kOvprofVci,
    util::kOvprofVciRails,
};

constexpr util::Cli kCli = {
    "ovprof_sched WORKLOAD",
    "Runs a multi-job workload through the cluster scheduler on one shared\n"
    "simulated fabric and streams per-job overlap/interference records to\n"
    "a versioned ovprof-agg-v1 file plus a per-job JSON summary.  WORKLOAD\n"
    "is a file of 'job <id> <kernel> <class> <nranks> <arrival> <prio>\n"
    "<estimate>' lines or synth:NJOBS[:SEED[:MAXRANKS]] for the\n"
    "deterministic generator.  Kernels: cg ep is mg; classes S A B.  All\n"
    "outputs are byte-identical across reruns and --ovprof-workers counts.\n"
    "Exit code: 0 success, 1 RSS budget exceeded, 2 tool error.",
    kFlags};

/// Parses synth:NJOBS[:SEED[:MAXRANKS]]; false on a malformed number, an
/// NJOBS outside [1, INT_MAX] or a MAXRANKS outside [1, machine_ranks].
bool parseSynthSpec(const std::string& spec, int machine_ranks,
                    std::vector<cluster::JobSpec>& out) {
  std::vector<std::int64_t> fields;
  for (std::string_view rest = std::string_view(spec).substr(6);;) {
    const std::size_t colon = rest.find(':');
    std::int64_t v = 0;
    if (fields.size() == 3 || !util::parseInt(rest.substr(0, colon), v)) {
      return false;
    }
    fields.push_back(v);
    if (colon == std::string_view::npos) break;
    rest.remove_prefix(colon + 1);
  }
  const std::int64_t njobs = fields[0];
  const std::int64_t max_ranks = fields.size() > 2 ? fields[2] : machine_ranks;
  if (njobs < 1 || njobs > INT_MAX || max_ranks < 1 ||
      max_ranks > machine_ranks) {
    return false;
  }
  const auto seed =
      static_cast<std::uint64_t>(fields.size() > 1 ? fields[1] : 1);
  out = cluster::synthWorkload(static_cast<int>(njobs), seed,
                               static_cast<int>(max_ranks));
  return true;
}

/// Streams the per-job JSON summary from the agg file, one record resident
/// at a time.
bool writeJsonSummary(const std::string& agg_path,
                      const cluster::ClusterConfig& cfg,
                      const cluster::CampaignResult& result,
                      std::ostream& os) {
  std::ifstream is(agg_path);
  if (!is) return false;
  std::string word;
  if (!(is >> word) || word != "ovprof-agg-v1") return false;
  os << "{\n";
  os << "  \"ovprof_sched_version\": 1,\n";
  os << "  \"campaign\": {\n";
  os << "    \"nodes\": " << cfg.nodes << ",\n";
  os << "    \"ranks_per_node\": " << cfg.ranks_per_node << ",\n";
  os << "    \"policy\": \""
     << (cfg.policy == cluster::SchedPolicy::Backfill ? "backfill" : "fifo")
     << "\",\n";
  os << "    \"exclusive_nodes\": " << (cfg.exclusive_nodes ? "true" : "false")
     << ",\n";
  os << "    \"jobs\": " << result.jobs << ",\n";
  os << "    \"records_written\": " << result.records_written << ",\n";
  os << "    \"makespan_ns\": " << result.makespan << ",\n";
  os << "    \"backfills\": " << result.backfills << ",\n";
  os << "    \"baseline_runs\": " << result.baselines << ",\n";
  os << "    \"peak_open_jobs\": " << result.peak_open_jobs << "\n";
  os << "  },\n";
  os << "  \"jobs\": [";
  cluster::JobRecord rec;
  bool first = true;
  while (true) {
    const auto pos = is.tellg();
    if (!(is >> word)) return false;
    if (word == "agg.end") break;
    is.clear();
    is.seekg(pos);
    if (!rec.load(is)) return false;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"id\": " << rec.spec.id << ", \"kernel\": \""
       << util::jsonEscape(rec.spec.kernel) << "\", \"class\": \""
       << rec.spec.klass << "\", \"nranks\": " << rec.spec.nranks;
    os << ", \"arrival_ns\": " << rec.spec.arrival
       << ", \"priority\": " << rec.spec.priority;
    os << ", \"start_ns\": " << rec.start << ", \"end_ns\": " << rec.end
       << ", \"duration_ns\": " << rec.duration();
    os << ", \"wait_ns\": " << rec.start - rec.spec.arrival;
    os << ", \"nodes\": [";
    for (std::size_t i = 0; i < rec.nodes.size(); ++i) {
      os << (i > 0 ? "," : "") << rec.nodes[i];
    }
    os << "]";
    os << ", \"data_transfer_ns\": "
       << rec.merged.whole.total.data_transfer_time;
    os << ", \"max_overlap_pct\": "
       << util::jsonNum(rec.merged.whole.total.maxPct());
    os << ", \"link_wait_ns\": " << rec.link_wait;
    os << ", \"solo_ns\": " << rec.solo_duration;
    os << ", \"slowdown\": " << util::jsonNum(rec.slowdown);
    os << ", \"contention_share\": " << util::jsonNum(rec.contention_share);
    os << ", \"overlap_delta_pct\": "
       << util::jsonNum(rec.overlap_delta_pct);
    os << "}";
    rec = cluster::JobRecord{};
  }
  os << "\n  ]\n}\n";
  return true;
}

[[nodiscard]] long peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const tool::CommandLine cl = tool::parseCommandLine(argc, argv, kCli);
  if (cl.positional.size() != 1) {
    std::fprintf(stderr, "ovprof_sched: expected exactly one WORKLOAD\n");
    return 2;
  }

  cluster::ClusterConfig cfg;
  cfg.nodes = static_cast<int>(cl.flags.getInt("nodes", 8));
  cfg.ranks_per_node = static_cast<int>(cl.flags.getInt("ranks-per-node", 4));
  cfg.policy = cl.flags.getString("policy", "backfill") == "fifo"
                   ? cluster::SchedPolicy::Fifo
                   : cluster::SchedPolicy::Backfill;
  cfg.exclusive_nodes = !cl.flags.getBool("shared-nodes", false);
  cfg.baselines = !cl.flags.getBool("no-baselines", false);
  cfg.workers = static_cast<int>(cl.flags.getInt("ovprof-workers", 1));
  const std::string vci_spec = cl.flags.getString("ovprof-vci", "");
  if (!vci_spec.empty()) {
    if (!net::VciParams::parse(vci_spec, cfg.fabric.vci)) {
      std::fprintf(stderr, "ovprof_sched: bad --ovprof-vci spec '%s'\n",
                   vci_spec.c_str());
      return 2;
    }
  }
  cfg.fabric.vci.rails = static_cast<int>(cl.flags.getInt("ovprof-vci-rails", 1));
  cfg.agg.spill_prefix = cl.flags.getString("spill", "");
  cfg.agg.shard_jobs = static_cast<int>(cl.flags.getInt("shard-jobs", 64));

  const std::string& wl = cl.positional[0];
  std::vector<cluster::JobSpec> jobs;
  if (wl.rfind("synth:", 0) == 0) {
    if (!parseSynthSpec(wl, cfg.nodes * cfg.ranks_per_node, jobs)) {
      std::fprintf(stderr,
                   "ovprof_sched: bad synth spec '%s' (want "
                   "synth:NJOBS[:SEED[:MAXRANKS]], MAXRANKS <= machine)\n",
                   wl.c_str());
      return 2;
    }
  } else {
    std::string error;
    if (!cluster::loadWorkloadFile(wl, jobs, &error)) {
      std::fprintf(stderr, "ovprof_sched: %s\n", error.c_str());
      return 2;
    }
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "ovprof_sched: workload has no jobs\n");
    return 2;
  }
  for (const cluster::JobSpec& j : jobs) {
    if (j.nranks > cfg.nodes * cfg.ranks_per_node) {
      std::fprintf(stderr,
                   "ovprof_sched: job %lld needs %d ranks, more than the "
                   "%d-node x %d-slot machine has\n",
                   static_cast<long long>(j.id), j.nranks, cfg.nodes,
                   cfg.ranks_per_node);
      return 2;
    }
  }

  const std::string write_wl = cl.flags.getString("write-workload", "");
  if (!write_wl.empty()) {
    std::ofstream os(write_wl, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "ovprof_sched: failed to write %s\n",
                   write_wl.c_str());
      return 2;
    }
    cluster::saveWorkload(os, jobs);
  }

  const std::string agg_path = cl.flags.getString("agg", "ovprof-agg.txt");
  std::ofstream agg_os(agg_path, std::ios::binary);
  if (!agg_os) {
    std::fprintf(stderr, "ovprof_sched: failed to write %s\n",
                 agg_path.c_str());
    return 2;
  }

  cluster::ClusterRuntime runtime(cfg);
  cluster::CampaignResult result;
  try {
    result = runtime.run(jobs, agg_os);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ovprof_sched: %s\n", e.what());
    return 2;
  }
  agg_os.flush();
  if (!agg_os) {
    std::fprintf(stderr, "ovprof_sched: short write to %s\n",
                 agg_path.c_str());
    return 2;
  }
  agg_os.close();

  const std::string launch_path = cl.flags.getString("launch-log", "");
  if (!launch_path.empty()) {
    std::ofstream os(launch_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "ovprof_sched: failed to write %s\n",
                   launch_path.c_str());
      return 2;
    }
    for (const cluster::LaunchEvent& l : runtime.launchLog()) {
      os << "launch " << l.job << ' ' << l.time << ' '
         << (l.backfilled ? 1 : 0);
      for (int nd : l.nodes) os << ' ' << nd;
      os << '\n';
    }
  }

  std::ofstream json_file;
  std::ostream* json_os =
      tool::openOutput("ovprof_sched", cl.flags.getString("json", ""),
                       json_file);
  if (json_os == nullptr) return 2;
  if (!writeJsonSummary(agg_path, cfg, result, *json_os)) {
    std::fprintf(stderr, "ovprof_sched: failed to summarize %s\n",
                 agg_path.c_str());
    return 2;
  }
  json_os->flush();

  const std::int64_t budget_mb = cl.flags.getInt("rss-budget-mb", 0);
  if (budget_mb > 0) {
    const long peak = peakRssMb();
    if (peak > budget_mb) {
      std::fprintf(stderr,
                   "ovprof_sched: peak RSS %ld MiB exceeds budget %lld MiB\n",
                   peak, static_cast<long long>(budget_mb));
      return 1;
    }
    std::fprintf(stderr, "ovprof_sched: peak RSS %ld MiB (budget %lld MiB)\n",
                 peak, static_cast<long long>(budget_mb));
  }
  return 0;
}
