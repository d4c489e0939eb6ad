// perfbench_worker: one pass of one benchmark workload through ovprof's
// public API, in a fresh process, reported as one JSON line on stdout.
//
//   perfbench_worker --workload=NAME --seed=N --work-dir=DIR
//                    [--spawn-ns=T] [--trace] [--spans-out=FILE]
//   perfbench_worker --probe=bare-rss --ranks=N
//   perfbench_worker --selftest
//
// Workloads (see README.md for why each exists), each of two parts run in
// order in one process:
//   nas_b16_postmortem   nas_b16: all 8 NAS kernels, class B, 16 ranks,
//                        MVAPICH2 preset; then postmortem_lossy: lossy
//                        traced CG+MG, the offline trace pipeline, and
//                        static skeleton checks of CG+MG at P=64
//   halo_p1024_campaign  halo_p1024: halo+allreduce at 1024 ranks,
//                        sequential and parallel; then campaign_200: a
//                        200-job campaign on 8 nodes x 4 ranks
//
// The pass is wrapped in a correctness gate: every call that can fail
// (throws, does not verify, reports errors, exhausts retries, produces a
// digest that differs from the recorded reference or from its sequential
// twin) counts one failed operation out of the operations attempted.
//
// --trace records a span around every public call (spans.hpp) and then
// runs the workload's differential probes (instrumentation off, bare
// engine, lossless vs lossy, baselines off, scheduler replay), whose
// results are the per-layer metrics.  --spawn-ns is the parent's
// steady-clock reading just before it started this process; set-up time
// runs from there to the first engine event, so it covers process start,
// input generation and every constructor, including those inside nas::run*.
//
// Engine events are counted by interposing sim::Engine::run at link time
// (-Wl,--wrap, see CMakeLists.txt): the NAS drivers and the cluster runtime
// build their engines internally, so this is the one boundary where every
// engine's event count is visible from outside.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "cluster/aggregator.hpp"
#include "cluster/runtime.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/workload.hpp"
#include "mpi/machine.hpp"
#include "mpi/mpi.hpp"
#include "nas/bt.hpp"
#include "nas/cg.hpp"
#include "nas/ep.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "nas/lu.hpp"
#include "nas/mg.hpp"
#include "nas/skeletons.hpp"
#include "nas/sp.hpp"
#include "nas/symbolic.hpp"
#include "net/fault.hpp"
#include "sim/engine.hpp"
#include "skeleton/check.hpp"
#include "skeleton/symbolic/instantiate.hpp"
#include "spans.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/reader.hpp"
#include "trace/timeline.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

using namespace ovp;
using perfbench::Call;
using perfbench::nowNs;

// ---- engine tap --------------------------------------------------------

namespace {
std::int64_t g_engine_events = 0;    // summed over every Engine::run
std::int64_t g_first_engine_ns = 0;  // entry of the first Engine::run
}  // namespace

#define OVP_ENGINE_RUN _ZN3ovp3sim6Engine3runEiRKSt8functionIFvRNS0_7ContextEEE
#define OVP_CAT2(a, b) a##b
#define OVP_CAT(a, b) OVP_CAT2(a, b)

extern "C" void OVP_CAT(__real_, OVP_ENGINE_RUN)(
    sim::Engine* self, int nranks,
    const std::function<void(sim::Context&)>& rank_main);

/// Replaces every call of sim::Engine::run: times it as a `sim` span and
/// adds its event count to g_engine_events.
extern "C" void OVP_CAT(__wrap_, OVP_ENGINE_RUN)(
    sim::Engine* self, int nranks,
    const std::function<void(sim::Context&)>& rank_main) {
  Call call("sim.engine_run", "sim");
  if (g_first_engine_ns == 0) g_first_engine_ns = nowNs();
  OVP_CAT(__real_, OVP_ENGINE_RUN)(self, nranks, rank_main);
  g_engine_events += self->eventsProcessed();
}

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

// ---- correctness gate and digests ---------------------------------------

struct Gate {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }

  /// Runs `f` as one operation; a throw is a failure, otherwise `f`'s
  /// boolean verdict decides.
  template <class F>
  void op(const std::string& what, F&& f) {
    bool ok = false;
    std::string why;
    try {
      ok = f();
    } catch (const std::exception& e) {
      why = std::string(" threw: ") + e.what();
    }
    check(ok, what + why);
  }
};

/// FNV-1a over the bytes of a pass's virtual outputs.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(std::to_string(v) + ";"); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(static_cast<std::int64_t>(bits));
  }
  void addReports(const std::vector<overlap::Report>& reports) {
    std::ostringstream os;
    for (const overlap::Report& r : reports) r.save(os);
    add(os.str());
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Virtual-output digests of the lossless parts at the default seed.
/// nas_b16 and halo_p1024 take no seed, so theirs hold at every seed.
/// Lossy fault outcomes are deliberately not pinned.
std::string referenceDigest(const std::string& part, std::uint64_t seed) {
  if (part == "nas_b16") return "bfa38369e06a3127";
  if (part == "halo_p1024") return "c5a1293f7720f526";
  if (part == "campaign_200" && seed == kDefaultSeed) return "4ad1bc229f478f54";
  return "";
}

// ---- pass bookkeeping ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::string work_dir = ".";
  std::int64_t spawn_ns = 0;  // 0: measure set-up from workload entry
  bool trace = false;
};

struct PassOut {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  std::int64_t peak_rss_kb = 0;
  std::int64_t events = 0;  // engine events of the simulation calls
  double sim_wall_s = 0.0;  // wall time of those calls
  double halo_seq_s = 0.0;      // the sequential halo run (probesHalo's base)
  double lossy_traced_s = 0.0;  // the traced lossy runs (probesPostmortem's)
  Gate gate;
  Digest digest;
  std::map<std::string, double> layer;  // per-layer metrics
};

double cpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process image, in kB.  VmHWM rather than
/// getrusage's ru_maxrss, which keeps the parent's peak across exec.
std::int64_t peakRssKb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

int parallelWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::int64_t errorCount(const std::vector<analysis::Diagnostic>& diags) {
  std::int64_t n = 0;
  for (const analysis::Diagnostic& d : diags) {
    if (d.severity == analysis::Severity::Error) n += d.count;
  }
  return n;
}

// ---- NAS ---------------------------------------------------------------

const std::vector<std::string>& nasKernels() {
  static const std::vector<std::string> k = {"bt", "cg", "ep", "ft",
                                             "is", "lu", "mg", "sp"};
  return k;
}

nas::NasParams nasParams(bool instrument) {
  nas::NasParams p;
  p.nranks = 16;
  p.cls = nas::Class::B;
  p.preset = mpi::Preset::Mvapich2;
  p.instrument = instrument;
  return p;
}

/// One nas::run* call; MG runs its ARMCI non-blocking variant.
nas::NasResult runKernel(const std::string& k, const nas::NasParams& p) {
  if (k == "bt") return nas::runBt(p);
  if (k == "cg") return nas::runCg(p);
  if (k == "ep") return nas::runEp(p);
  if (k == "ft") return nas::runFt(p);
  if (k == "is") return nas::runIs(p);
  if (k == "lu") return nas::runLu(p);
  if (k == "sp") {
    nas::SpParams sp;
    static_cast<nas::NasParams&>(sp) = p;
    return nas::runSp(sp);
  }
  nas::MgParams mg;
  static_cast<nas::NasParams&>(mg) = p;
  mg.variant = nas::MgVariant::ArmciNonBlocking;
  return nas::runMg(mg);
}

/// Times one kernel call as span "nas.<k><suffix>" (MG's is attributed to
/// the ARMCI module); adds its events and wall to `out`.
nas::NasResult timedKernel(const std::string& k, const nas::NasParams& p,
                           const char* suffix, PassOut& out, double* wall) {
  const std::string name = "nas." + k + suffix;
  const std::int64_t ev0 = g_engine_events;
  nas::NasResult r;
  {
    Call call(name.c_str(), k == "mg" ? "armci" : "nas");
    r = runKernel(k, p);
    *wall = call.stop();
  }
  out.events += g_engine_events - ev0;
  out.sim_wall_s += *wall;
  return r;
}

void passNas(const Options&, PassOut& out) {
  std::int64_t transfers = 0;
  for (const std::string& k : nasKernels()) {
    out.gate.op("nas " + k + " B/16", [&] {
      double wall = 0.0;
      const nas::NasResult r = timedKernel(k, nasParams(true), "", out, &wall);
      out.layer["nas." + k + "_s"] = wall;
      out.digest.add(k);
      out.digest.add(r.checksum);
      out.digest.add(r.time);
      out.digest.addReports(r.reports);
      transfers += nas::aggregateWhole(r.reports).transfers;
      return r.verified;
    });
  }
  out.layer["overlap.transfers"] += static_cast<double>(transfers);
}

// ---- halo --------------------------------------------------------------

constexpr int kHaloRanks = 1024;
constexpr int kHaloIters = 20;
constexpr int kHaloDoubles = 1024;

/// sim_bench's rank body: nonblocking halo exchange with both ring
/// neighbours (compute between post and wait), then an allreduce.
void haloRank(mpi::Mpi& mpi) {
  const int rank = mpi.rank();
  const int nranks = mpi.size();
  const int left = (rank + nranks - 1) % nranks;
  const int right = (rank + 1) % nranks;
  std::vector<double> send_l(kHaloDoubles), send_r(kHaloDoubles);
  std::vector<double> recv_l(kHaloDoubles), recv_r(kHaloDoubles);
  double sum = 0.0;
  for (int it = 0; it < kHaloIters; ++it) {
    mpi::Request rl = mpi.irecvT(recv_l.data(), kHaloDoubles, left, 1);
    mpi::Request rr = mpi.irecvT(recv_r.data(), kHaloDoubles, right, 2);
    mpi::Request sl = mpi.isendT(send_l.data(), kHaloDoubles, left, 2);
    mpi::Request sr = mpi.isendT(send_r.data(), kHaloDoubles, right, 1);
    mpi.compute(static_cast<DurationNs>(kHaloDoubles));
    mpi.wait(rl);
    mpi.wait(rr);
    mpi.wait(sl);
    mpi.wait(sr);
    double total = 0.0;
    mpi.allreduce(&sum, &total, 1, mpi::Op::Sum);
    sum = total;
  }
}

struct HaloRun {
  double ctor_s = 0.0;
  double run_s = 0.0;
  std::int64_t events = 0;
  std::int64_t transfers = 0;
  int workers_used = 1;
  std::string digest;
};

HaloRun runHalo(int workers, bool instrument) {
  mpi::JobConfig cfg;
  cfg.nranks = kHaloRanks;
  cfg.workers = workers;
  cfg.mpi.instrument = instrument;
  HaloRun h;
  Call ctor("mpi.machine_ctor", "mpi");
  mpi::Machine machine(cfg);
  h.ctor_s = ctor.stop();
  {
    Call run(workers > 1 ? "mpi.machine_run.par" : "mpi.machine_run", "mpi");
    machine.run(haloRank);
    h.run_s = run.stop();
  }
  h.events = machine.engine().eventsProcessed();
  h.workers_used = machine.engine().workersUsed();
  Digest d;
  d.add(machine.finishTime());
  d.add(h.events);
  d.addReports(machine.reports());
  h.digest = d.hex();
  h.transfers = nas::aggregateWhole(machine.reports()).transfers;
  return h;
}

void passHalo(const Options&, PassOut& out) {
  HaloRun seq;
  HaloRun par;
  out.gate.op("halo p1024 sequential", [&] {
    seq = runHalo(1, true);
    return seq.events > 0;
  });
  out.gate.op("halo p1024 parallel", [&] {
    par = runHalo(parallelWorkers(), true);
    return par.events > 0;
  });
  out.gate.check(par.workers_used == parallelWorkers(),
                 "halo parallel run used " + std::to_string(par.workers_used) +
                     " worker(s)");
  out.gate.check(seq.digest == par.digest,
                 "halo sequential and parallel virtual outputs differ");
  out.events += seq.events;
  out.sim_wall_s += seq.run_s;
  out.halo_seq_s = seq.run_s;
  out.digest.add(seq.digest);
  out.layer["par_events_per_s"] =
      par.run_s > 0.0 ? static_cast<double>(par.events) / par.run_s : 0.0;
  out.layer["sim.setup_s.p1024"] = seq.ctor_s;
  out.layer["overlap.transfers"] += static_cast<double>(seq.transfers);
}

// ---- campaign ----------------------------------------------------------

constexpr int kCampaignJobs = 200;
constexpr int kNodes = 8;
constexpr int kRanksPerNode = 4;
constexpr std::uint64_t kCampaignMixSeed = 1;

/// The campaign's job list: the 200 job specs of synthWorkload's mix for
/// kCampaignMixSeed, dealt out by the run seed over that mix's arrival
/// slots.  Each generator seed draws its own share of class B jobs (16x a
/// class S job), so synthWorkload's work moves ~11% from seed to seed; with
/// one mix the seed varies the schedule, co-location and aggregation order
/// while the work per pass stays put.
std::vector<cluster::JobSpec> campaignJobs(std::uint64_t seed) {
  std::vector<cluster::JobSpec> jobs = cluster::synthWorkload(
      kCampaignJobs, kCampaignMixSeed, kNodes * kRanksPerNode);
  std::vector<TimeNs> arrivals;
  for (const cluster::JobSpec& j : jobs) arrivals.push_back(j.arrival);
  util::Rng rng(seed);
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.below(i)]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<std::int64_t>(i) + 1;
    jobs[i].arrival = arrivals[i];
  }
  return jobs;
}

cluster::ClusterConfig campaignConfig(const Options& o, bool baselines) {
  cluster::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.ranks_per_node = kRanksPerNode;
  cfg.policy = cluster::SchedPolicy::Backfill;
  cfg.baselines = baselines;
  cfg.agg.spill_prefix = o.work_dir + "/agg";
  return cfg;
}

struct CampaignRun {
  double run_s = 0.0;
  std::int64_t events = 0;
  cluster::CampaignResult result;
  std::string agg;
};

CampaignRun runCampaign(const Options& o,
                        const std::vector<cluster::JobSpec>& jobs,
                        bool baselines) {
  CampaignRun c;
  Call ctor("cluster.runtime_ctor", "cluster");
  cluster::ClusterRuntime runtime(campaignConfig(o, baselines));
  ctor.stop();
  std::ostringstream agg;
  const std::int64_t ev0 = g_engine_events;
  {
    Call run(baselines ? "cluster.run" : "cluster.run.no_baselines",
             "cluster");
    c.result = runtime.run(jobs, agg);
    c.run_s = run.stop();
  }
  c.events = g_engine_events - ev0;
  c.agg = agg.str();
  return c;
}

/// Replays the job list through a bare Scheduler, each estimate standing in
/// for the runtime; returns the number of jobs launched.
std::int64_t replaySchedule(const std::vector<cluster::JobSpec>& jobs) {
  cluster::Scheduler sched(cluster::SchedPolicy::Backfill, kNodes,
                           kRanksPerNode, true);
  std::vector<cluster::JobSpec> order = jobs;
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
  });
  using Finish = std::pair<TimeNs, std::int64_t>;
  std::priority_queue<Finish, std::vector<Finish>, std::greater<>> running;
  std::size_t next = 0;
  std::int64_t launched = 0;
  while (next < order.size() || !running.empty()) {
    TimeNs now = kTimeNever;
    if (next < order.size()) now = order[next].arrival;
    if (!running.empty()) now = std::min(now, running.top().first);
    while (!running.empty() && running.top().first == now) {
      sched.finished(running.top().second, now);
      running.pop();
    }
    while (next < order.size() && order[next].arrival == now) {
      sched.submit(order[next++]);
    }
    for (const cluster::Launch& l : sched.poll(now)) {
      running.emplace(now + std::max<DurationNs>(l.spec.estimate, 1),
                      l.spec.id);
      ++launched;
    }
  }
  return launched;
}

void passCampaign(const Options& o, PassOut& out) {
  std::vector<cluster::JobSpec> jobs;
  {
    Call gen("cluster.synth_workload", "cluster");
    jobs = campaignJobs(o.seed);
  }
  out.gate.op("campaign_200 run", [&] {
    const CampaignRun c = runCampaign(o, jobs, true);
    out.events += c.events;
    out.sim_wall_s += c.run_s;
    std::istringstream is(c.agg);
    std::vector<cluster::JobRecord> records;
    const bool loaded = cluster::Aggregator::loadAll(is, records);
    std::int64_t transfers = 0;
    for (const cluster::JobRecord& r : records) {
      transfers += r.merged.whole.total.transfers;
    }
    out.digest.add(c.agg);
    out.digest.add(c.result.makespan);
    out.layer["cluster.run_s"] = c.run_s;
    out.layer["cluster.baseline_runs"] = static_cast<double>(c.result.baselines);
    out.layer["jobs_per_s"] = static_cast<double>(c.result.jobs) / c.run_s;
    out.layer["overlap.transfers"] += static_cast<double>(transfers);
    return loaded && c.result.jobs == kCampaignJobs &&
           static_cast<std::int64_t>(records.size()) == kCampaignJobs;
  });
}

// ---- post-mortem -------------------------------------------------------

constexpr DurationNs kTraceWindow = 1'000'000;

nas::NasParams lossyParams(const Options& o, bool lossy, bool traced) {
  nas::NasParams p = nasParams(true);
  if (lossy &&
      !net::FaultModel::parse("drop=0.01,seed=" + std::to_string(o.seed),
                              p.fabric.fault)) {
    throw std::runtime_error("bad fault spec");
  }
  p.trace.enabled = traced;
  return p;
}

/// Window totals of the reloaded trace must equal each rank's report.
bool reconciles(const std::vector<trace::RankWindows>& per_rank,
                const std::vector<overlap::Report>& reports) {
  if (per_rank.size() != reports.size()) return false;
  for (const trace::RankWindows& rw : per_rank) {
    const overlap::OverlapAccum& w =
        reports[static_cast<std::size_t>(rw.rank)].whole.total;
    if (rw.dropped != 0 || rw.total.transfers != w.transfers ||
        rw.total.bytes != w.bytes ||
        rw.total.data_transfer_time != w.data_transfer_time ||
        rw.total.min_overlapped != w.min_overlapped ||
        rw.total.max_overlapped != w.max_overlapped) {
      return false;
    }
  }
  return true;
}

nas::SkeletonParams skeletonParams(const std::string& k, int nranks) {
  nas::SkeletonParams sp;
  sp.nranks = nranks;
  sp.cls = nas::Class::B;
  if (k == "mg") sp.variant = "armci-nb";
  return sp;
}

/// The traced lossy run of one kernel and the offline pipeline over it.
void postmortemKernel(const Options& o, const std::string& k, PassOut& out) {
  double wall = 0.0;
  const nas::NasResult r =
      timedKernel(k, lossyParams(o, true, true), "_traced", out, &wall);
  out.lossy_traced_s += wall;
  const overlap::FaultStats faults = nas::aggregateFaults(r.reports);
  out.gate.check(r.verified, k + " lossy verified");
  out.gate.check(faults.retry_exhausted == 0, k + " retry_exhausted == 0");
  out.gate.check(r.trace != nullptr && r.trace->droppedTotal() == 0,
                 k + " trace complete");
  out.layer["net.attempts"] += static_cast<double>(faults.attempts);
  out.layer["net.retransmissions"] += static_cast<double>(faults.retransmissions);
  out.layer["net.retry_exhausted"] += static_cast<double>(faults.retry_exhausted);
  out.layer["overlap.transfers"] +=
      static_cast<double>(nas::aggregateWhole(r.reports).transfers);
  out.digest.add(r.checksum);
  out.digest.add(r.time);
  out.digest.addReports(r.reports);
  if (r.trace == nullptr) return;
  const trace::Collector& live = *r.trace;
  out.layer["trace.records"] += static_cast<double>(live.recordedTotal());

  const std::string json_path = o.work_dir + "/trace_" + k + ".json";
  const std::string csv_path = json_path + ".csv";
  out.gate.op(k + " chrome json export", [&] {
    Call c("trace.write_json", "trace");
    return trace::writeChromeJsonFile(live, json_path);
  });
  out.layer["trace.json_mb"] +=
      static_cast<double>(std::filesystem::file_size(json_path)) / 1e6;
  out.gate.op(k + " csv export", [&] {
    Call c("trace.write_csv", "trace");
    return trace::writeCsvFile(live, csv_path);
  });
  trace::ReadResult loaded;
  out.gate.op(k + " csv reload", [&] {
    Call c("trace.read_csv", "trace");
    loaded = trace::readCsvFile(csv_path);
    return loaded.collector != nullptr &&
           loaded.collector->recordedTotal() == live.recordedTotal();
  });
  if (loaded.collector == nullptr) return;
  const trace::Collector& offline = *loaded.collector;
  out.gate.op(k + " trace reconciliation exact", [&] {
    Call c("trace.windows", "trace");
    return reconciles(trace::analyzeAllWindows(offline, kTraceWindow),
                      r.reports);
  });
  out.gate.op(k + " critical path", [&] {
    Call c("trace.critical_path", "trace");
    const auto edges = trace::matchMessages(offline);
    const trace::CriticalPath cp = trace::computeCriticalPath(offline, edges);
    out.digest.add(static_cast<std::int64_t>(edges.size()));
    return cp.end_time > 0;
  });
  out.gate.op(k + " lint", [&] {
    Call c("analysis.lint", "analysis");
    const analysis::LintResult lr = analysis::runLint(offline);
    const std::int64_t errors = errorCount(lr.diagnostics);
    out.layer["analysis.errors"] += static_cast<double>(errors);
    return errors == 0;
  });
  out.gate.op(k + " conformance", [&] {
    const nas::SkeletonBuildResult built =
        nas::buildNasSkeleton(k, skeletonParams(k, 16));
    if (!built.ok()) return false;
    Call c("skeleton.conform", "skeleton");
    const skel::CheckResult cr = skel::runCheckConform(built.skeleton, {}, live);
    out.layer["analysis.errors"] += static_cast<double>(errorCount(cr.diagnostics));
    return cr.conform_ran && errorCount(cr.diagnostics) == 0;
  });
  std::filesystem::remove(json_path);
  std::filesystem::remove(csv_path);
}

/// Static checks of one kernel's skeleton at P=64, class B.
void staticCheck(const std::string& k, PassOut& out) {
  constexpr int kProcs = 64;
  nas::SkeletonBuildResult built;
  out.gate.op(k + " skeleton build P=64", [&] {
    Call c("skeleton.build_p64", "skeleton");
    built = nas::buildNasSkeleton(k, skeletonParams(k, kProcs));
    return built.ok();
  });
  out.gate.op(k + " symbolic instantiate P=64", [&] {
    Call c("skeleton.instantiate_p64", "skeleton");
    const nas::SymSkeletonBuildResult sym =
        nas::buildNasSymSkeleton(k, skeletonParams(k, kProcs));
    return sym.ok() && skel::sym::instantiate(sym.skeleton, kProcs).ok();
  });
  if (!built.ok()) return;
  out.gate.op(k + " static check P=64", [&] {
    Call c("skeleton.check_p64", "skeleton");
    const skel::CheckResult cr = skel::runCheck(built.skeleton);
    out.layer["skeleton.ops.p64"] += static_cast<double>(cr.ops);
    out.layer["analysis.errors"] += static_cast<double>(errorCount(cr.diagnostics));
    return errorCount(cr.diagnostics) == 0;
  });
}

void passPostmortem(const Options& o, PassOut& out) {
  for (const char* k : {"cg", "mg"}) {
    out.gate.op(std::string(k) + " post-mortem", [&] {
      postmortemKernel(o, k, out);
      return true;
    });
  }
  for (const char* k : {"cg", "mg"}) staticCheck(k, out);
  const double attempts = out.layer["net.attempts"];
  out.layer["net.useful_ratio"] =
      attempts > 0 ? (attempts - out.layer["net.retransmissions"]) / attempts
                   : 0.0;
}

// ---- probes (traced runs only) -----------------------------------------

constexpr DurationNs kBareLookahead = 1000;

struct BareRun {
  std::int64_t events = 0;
  double wall_s = 0.0;
};

/// The bare engine: each rank computes, hands a wake-up handler to its ring
/// neighbour's domain, and sleeps until its own arrives.  No fabric, MPI or
/// monitor is involved.  Compute lengths vary by rank and step, as message
/// latencies do in a real job, so ranks do not all wake at one instant.
BareRun runBareEngine(int nranks, int iters, int workers) {
  sim::Engine engine;
  engine.setWorkers(workers);
  engine.setLookahead(kBareLookahead);
  std::vector<std::int64_t> received(static_cast<std::size_t>(nranks), 0);
  Call call(workers > 1 ? "sim.bare_engine.par" : "sim.bare_engine", "sim");
  engine.run(nranks, [&](sim::Context& ctx) {
    const Rank me = ctx.rank();
    const Rank right = (me + 1) % nranks;
    sim::Engine& eng = ctx.engine();
    for (int i = 0; i < iters; ++i) {
      ctx.compute(150 + (me * 7919 + i * 104729) % 101);
      eng.scheduleFor(right, ctx.now() + kBareLookahead, [&received, &eng, right] {
        ++received[static_cast<std::size_t>(right)];
        eng.wake(right);
      });
      while (received[static_cast<std::size_t>(me)] <= i) ctx.sleep();
    }
  });
  BareRun b;
  b.wall_s = call.stop();
  b.events = engine.eventsProcessed();
  return b;
}

double nsPerEvent(const BareRun& b) {
  return b.events > 0 ? b.wall_s * 1e9 / static_cast<double>(b.events) : 0.0;
}

double overheadPct(double with, double without) {
  return without > 0.0 ? 100.0 * (with - without) / without : 0.0;
}

void probesNas(const Options&, PassOut& out) {
  double instrumented = 0.0;
  for (const std::string& k : nasKernels()) instrumented += out.layer["nas." + k + "_s"];
  double bare = 0.0;
  PassOut scratch;
  for (const std::string& k : nasKernels()) {
    out.gate.op("nas " + k + " uninstrumented", [&] {
      double wall = 0.0;
      const nas::NasResult r =
          timedKernel(k, nasParams(false), "_noinstr", scratch, &wall);
      bare += wall;
      return r.verified;
    });
  }
  out.layer["overlap.host_overhead_pct.nas"] = overheadPct(instrumented, bare);
  out.layer["sim.bare_ns_per_event.p16"] = nsPerEvent(runBareEngine(16, 40000, 1));
}

void probesHalo(const Options&, PassOut& out) {
  HaloRun plain;
  out.gate.op("halo p1024 uninstrumented", [&] {
    plain = runHalo(1, false);
    return plain.events > 0;
  });
  const BareRun seq = runBareEngine(kHaloRanks, 200, 1);
  const BareRun par = runBareEngine(kHaloRanks, 200, parallelWorkers());
  out.gate.check(seq.events == par.events,
                 "bare engine event count differs between 1 and N workers");
  out.layer["sim.bare_ns_per_event.p1024"] = nsPerEvent(seq);
  out.layer["sim.bare_par_ns_per_event.p1024"] = nsPerEvent(par);
  // Engine + NIC + protocols per event, monitor off.  Not net of the bare
  // engine: its events are mostly fiber switches, the halo's mostly NIC
  // and protocol handlers, so per-event costs of the two do not subtract.
  if (plain.events > 0) {
    out.layer["mpi.ns_per_event.p1024"] =
        plain.run_s * 1e9 / static_cast<double>(plain.events);
  }
  out.layer["overlap.host_overhead_pct.halo"] =
      overheadPct(out.halo_seq_s, plain.run_s);
}

void probesCampaign(const Options& o, PassOut& out) {
  const std::vector<cluster::JobSpec> jobs = campaignJobs(o.seed);
  out.gate.op("campaign_200 without baselines", [&] {
    const CampaignRun c = runCampaign(o, jobs, false);
    out.layer["cluster.baseline_s"] = out.layer["cluster.run_s"] - c.run_s;
    return c.result.jobs == kCampaignJobs;
  });
  out.gate.op("scheduler replay", [&] {
    Call c("cluster.sched_replay", "cluster");
    const std::int64_t launched = replaySchedule(jobs);
    out.layer["cluster.sched_s"] = c.stop();
    return launched == kCampaignJobs;
  });
}

void probesPostmortem(const Options& o, PassOut& out) {
  double lossy = 0.0;
  double lossless = 0.0;
  PassOut scratch;
  for (const char* k : {"cg", "mg"}) {
    out.gate.op(std::string(k) + " lossy untraced", [&] {
      double wall = 0.0;
      const nas::NasResult r =
          timedKernel(k, lossyParams(o, true, false), "_lossy", scratch, &wall);
      lossy += wall;
      return r.verified;
    });
    out.gate.op(std::string(k) + " lossless untraced", [&] {
      double wall = 0.0;
      const nas::NasResult r =
          timedKernel(k, lossyParams(o, false, false), "_lossless", scratch, &wall);
      lossless += wall;
      return r.verified;
    });
  }
  out.layer["net.fault_overhead_s"] = lossy - lossless;
  out.layer["trace.collect_overhead_pct"] =
      overheadPct(out.lossy_traced_s, lossy);
}

// ---- workloads and main ------------------------------------------------

/// One part of a workload: its share of the pass and of the probes.
struct Part {
  const char* name;
  void (*pass)(const Options&, PassOut&);
  void (*probes)(const Options&, PassOut&);
};

struct Workload {
  const char* name;
  std::vector<Part> parts;  // run in this order, in one process
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"nas_b16_postmortem",
       {{"nas_b16", passNas, probesNas},
        {"postmortem_lossy", passPostmortem, probesPostmortem}}},
      {"halo_p1024_campaign",
       {{"halo_p1024", passHalo, probesHalo},
        {"campaign_200", passCampaign, probesCampaign}}},
  };
  return w;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Runs one pass (plus probes when tracing) and checks each part's digest
/// against its reference.  The pass digest hashes the parts' digests.
PassOut runPass(const Workload& w, const Options& o) {
  PassOut out;
  const std::int64_t entry_ns = nowNs();
  const double cpu0 = cpuSeconds();
  const std::int64_t ev0 = g_engine_events;
  g_first_engine_ns = 0;
  perfbench::spans().setPass(0);
  std::vector<std::string> part_digests;
  {
    Call pass("pass", "bench");
    for (const Part& part : w.parts) {
      out.digest = Digest();
      out.gate.op(std::string(part.name) + " pass", [&] {
        part.pass(o, out);
        return true;
      });
      part_digests.push_back(out.digest.hex());
    }
    out.wall_s = pass.stop();
  }
  out.cpu_s = cpuSeconds() - cpu0;
  out.peak_rss_kb = peakRssKb();
  out.layer["sim.events"] = static_cast<double>(g_engine_events - ev0);
  // Set-up: process start (or workload entry) up to the first engine event.
  const std::int64_t start_ns = o.spawn_ns > 0 ? o.spawn_ns : entry_ns;
  out.setup_s = g_first_engine_ns > 0
                    ? static_cast<double>(g_first_engine_ns - start_ns) * 1e-9
                    : out.wall_s;
  out.digest = Digest();
  for (std::size_t i = 0; i < w.parts.size(); ++i) {
    const std::string name = w.parts[i].name;
    const std::string ref = referenceDigest(name, o.seed);
    if (!ref.empty()) {
      out.gate.check(part_digests[i] == ref,
                     name + " digest " + part_digests[i] +
                         " differs from reference " + ref);
    }
    out.digest.add(part_digests[i]);
  }
  if (o.trace) {
    perfbench::spans().setPass(1);
    for (const Part& part : w.parts) {
      out.gate.op(std::string(part.name) + " probes", [&] {
        part.probes(o, out);
        return true;
      });
    }
  }
  return out;
}

std::string jsonEscape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return o;
}

void printPass(const std::string& workload, const PassOut& p) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": \"" << workload << "\", \"wall_s\": " << p.wall_s
     << ", \"cpu_s\": " << p.cpu_s << ", \"setup_s\": " << p.setup_s
     << ", \"peak_rss_kb\": " << p.peak_rss_kb << ", \"events\": " << p.events
     << ", \"sim_wall_s\": " << p.sim_wall_s
     << ", \"attempted\": " << p.gate.attempted
     << ", \"failed\": " << p.gate.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < p.gate.failures.size(); ++i) {
    os << (i ? ", " : "") << "\"" << jsonEscape(p.gate.failures[i]) << "\"";
  }
  os << "], \"digest\": \"" << p.digest.hex() << "\", \"layer\": {";
  bool first = true;
  for (const auto& [name, value] : p.layer) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  os << "}}\n";
  std::fputs(os.str().c_str(), stdout);
}

/// Each workload's pass digest must repeat in-process, and each lossless
/// part's digest must match its reference (a mismatch prints the new one).
int selftest(const std::string& work_dir) {
  int rc = 0;
  for (const Workload& w : workloads()) {
    Options o;
    o.workload = w.name;
    o.work_dir = work_dir;
    const PassOut a = runPass(w, o);
    const PassOut b = runPass(w, o);
    const bool same = a.digest.hex() == b.digest.hex();
    const bool ok = same && a.gate.failed == 0 && b.gate.failed == 0;
    std::printf("%-20s %s %s%s\n", w.name, a.digest.hex().c_str(),
                ok ? "ok" : "FAILED", same ? "" : " (repeat differs)");
    for (const std::string& f : a.gate.failures) std::printf("  %s\n", f.c_str());
    if (!ok) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  if (!flags.parse(argc, argv)) return 2;
  const std::string work_dir = flags.getString("work-dir", ".");
  if (flags.getBool("selftest", false)) return selftest(work_dir);

  const std::string probe = flags.getString("probe", "");
  if (probe == "bare-rss") {
    const int ranks = static_cast<int>(flags.getInt("ranks", 16));
    (void)runBareEngine(ranks, 20, 1);
    std::printf("{\"peak_rss_kb\": %lld}\n", static_cast<long long>(peakRssKb()));
    return 0;
  }

  Options o;
  o.workload = flags.getString("workload", "");
  o.seed = static_cast<std::uint64_t>(flags.getInt("seed", kDefaultSeed));
  o.work_dir = work_dir;
  o.spawn_ns = flags.getInt("spawn-ns", 0);
  o.trace = flags.getBool("trace", false);
  const Workload* w = findWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_worker: unknown --workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  perfbench::spans().setEnabled(o.trace);
  const PassOut out = runPass(*w, o);
  const std::string spans_out = flags.getString("spans-out", "");
  if (!spans_out.empty()) {
    std::ofstream os(spans_out, std::ios::binary);
    perfbench::spans().writeJsonLines(os);
    if (!os) {
      std::fprintf(stderr, "perfbench_worker: cannot write %s\n",
                   spans_out.c_str());
      return 1;
    }
  }
  printPass(o.workload, out);
  return 0;
}
