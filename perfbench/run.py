#!/usr/bin/env python3
"""ovprof benchmark: end-to-end host metrics and a per-module breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

NAME is nas_b16_postmortem or halo_p1024_campaign (see README.md).  The
first run builds ovprof's libraries and the benchmark worker into
.bench_build/perfbench.  A run starts one fresh worker process per workload
pass, one at a time, until --seconds have been measured (at least
MIN_PASSES passes).  The seed drives the campaign's job order and the
fault model; the same seed gives the same inputs.  Times are the fastest
pass (see end_to_end), set-up time the median pass.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes with traced ones (spans around every public call, plus differential
probes) and prints the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
failed / attempted is the fail ratio over every operation the passes ran.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(BUILD, "perfbench_worker")

DEFAULT_SEED = 1
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150

# Why each exists: BENCHMARK.json and README.md.
WORKLOADS = ["nas_b16_postmortem", "halo_p1024_campaign"]

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_s", "1/s"),
]

MODULES = ["sim", "net", "mpi", "armci", "overlap", "nas", "cluster",
           "trace", "analysis", "skeleton"]
NAS_KERNELS = ["bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"]

# Per-layer metrics timed as the summed duration of the spans of one name.
SPAN_METRICS = {
    "trace.json_s": "trace.write_json",
    "trace.csv_s": "trace.write_csv",
    "trace.read_csv_s": "trace.read_csv",
    "trace.windows_s": "trace.windows",
    "trace.critical_path_s": "trace.critical_path",
    "analysis.lint_s": "analysis.lint",
    "skeleton.build_s.p64": "skeleton.build_p64",
    "skeleton.instantiate_s.p64": "skeleton.instantiate_p64",
    "skeleton.check_s.p64": "skeleton.check_p64",
    "skeleton.conform_s": "skeleton.conform",
}

PER_LAYER = (
    [("sim.events", "count"),
     ("sim.bare_ns_per_event.p16", "ns"),
     ("sim.bare_ns_per_event.p1024", "ns"),
     ("sim.bare_par_ns_per_event.p1024", "ns"),
     ("sim.rss_kb_per_rank", "kB"),
     ("sim.setup_s.p1024", "s"),
     ("par_events_per_s", "1/s"),
     ("mpi.ns_per_event.p1024", "ns"),
     ("overlap.host_overhead_pct.halo", "%"),
     ("overlap.host_overhead_pct.nas", "%"),
     ("overlap.transfers", "count")]
    + [("nas.%s_s" % k, "s") for k in NAS_KERNELS]
    + [("net.fault_overhead_s", "s"),
       ("net.attempts", "count"),
       ("net.retransmissions", "count"),
       ("net.retry_exhausted", "count"),
       ("net.useful_ratio", "ratio"),
       ("trace.records", "count"),
       ("trace.json_mb", "MB"),
       ("trace.collect_overhead_pct", "%")]
    + [(name, "s") for name in SPAN_METRICS if name.startswith("trace.")]
    + [("analysis.lint_s", "s"),
       ("analysis.errors", "count"),
       ("skeleton.build_s.p64", "s"),
       ("skeleton.instantiate_s.p64", "s"),
       ("skeleton.check_s.p64", "s"),
       ("skeleton.ops.p64", "count"),
       ("skeleton.conform_s", "s"),
       ("cluster.run_s", "s"),
       ("cluster.baseline_runs", "count"),
       ("cluster.baseline_s", "s"),
       ("cluster.sched_s", "s"),
       ("jobs_per_s", "1/s"),
       ("bench.trace_overhead_s", "s"),
       ("bench.span_coverage_pct", "%")]
    + [("%s.self_s" % m, "s") for m in MODULES]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- statistics ---------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def fail_ratio(attempted, failed):
    """Failed operations over attempted ones; the base is `attempted`."""
    return failed / attempted if attempted else 0.0


def tally(passes):
    """Sums the passes' operation counts and adds one operation per repeat:
    every pass's virtual-output digest must equal the first pass's."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for i, p in enumerate(passes[1:], 1):
        attempted += 1
        if p["digest"] != passes[0]["digest"]:
            failed += 1
            failures.append("pass %d: digest %s differs from the first "
                            "pass's %s" % (i, p["digest"], passes[0]["digest"]))
    return attempted, failed, failures


# ---- spans --------------------------------------------------------------

def union_length(intervals):
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Per-module self time in seconds: each span's duration minus the part
    of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = union_length([(max(c["start_ns"], lo), min(c["end_ns"], hi))
                                for c in children.get(s["id"], [])
                                if c["end_ns"] > lo and c["start_ns"] < hi])
        out[s["module"]] = out.get(s["module"], 0.0) + (hi - lo - covered) * 1e-9
    return out


def coverage_pct(spans):
    """Share of the pass root's wall time covered by its direct children."""
    roots = [s for s in spans if s["parent"] == -1 and s["name"] == "pass"]
    if not roots:
        return 0.0
    root = roots[0]
    kids = [(c["start_ns"], c["end_ns"]) for c in spans
            if c["parent"] == root["id"]]
    length = root["end_ns"] - root["start_ns"]
    return 100.0 * union_length(kids) / length if length else 0.0


def span_seconds(spans, name):
    return sum(s["end_ns"] - s["start_ns"] for s in spans
               if s["name"] == name) * 1e-9


def layer_from_spans(spans):
    """Per-layer metrics of one traced pass that come from its spans."""
    workload_spans = [s for s in spans if s["pass"] == 0]
    out = {name: span_seconds(workload_spans, span)
           for name, span in SPAN_METRICS.items()}
    selfs = self_times(workload_spans)
    for m in MODULES:
        out["%s.self_s" % m] = selfs.get(m, 0.0)
    out["bench.span_coverage_pct"] = coverage_pct(workload_spans)
    return out


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---- build and workers --------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no ovprof sources under %s; run from a full checkout"
            % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_worker(args):
    """Runs one worker process; returns its parsed JSON line."""
    cmd = [WORKER] + args + ["--spawn-ns=%d" % time.monotonic_ns()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d: %s"
                           % (" ".join(args), proc.returncode,
                              proc.stderr.strip()[-500:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workdir:
    """A scratch directory under the build tree, removed afterwards."""

    def __enter__(self):
        self.path = os.path.join(BUILD, "work", str(os.getpid()))
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def run_pass(workload, seed, work, extra=()):
    return run_worker(["--workload=" + workload, "--seed=%d" % seed,
                       "--work-dir=" + work] + list(extra))


# ---- runs ---------------------------------------------------------------

def measure(seconds, run_one, min_rounds):
    """Calls run_one() until `seconds` have elapsed, predicting from the
    rounds so far whether one more still fits; at least min_rounds."""
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        run_one()
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(durations) >= min_rounds and elapsed + median(durations) > seconds:
            return


def end_to_end(passes):
    """Times are the fastest pass (contention from other tenants of the
    host only ever adds time); set-up time is the median pass; memory is
    the peak over all passes."""
    return {
        "wall_s": min(p["wall_s"] for p in passes),
        "cpu_s": min(p["cpu_s"] for p in passes),
        "setup_s": median([p["setup_s"] for p in passes]),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
        "events_per_s": max(p["events"] / p["sim_wall_s"] if p["sim_wall_s"]
                            else 0.0 for p in passes),
    }


def run_untraced(workload, seed, seconds):
    passes = []
    with Workdir() as work:
        measure(seconds,
                lambda: passes.append(run_pass(workload, seed, work)),
                MIN_PASSES)
    return passes, end_to_end(passes)


def run_traced(workload, seed, seconds):
    """Alternates untraced and traced passes; the per-layer metrics are the
    medians over the traced ones."""
    untraced, traced, layers = [], [], []
    span_dir = os.path.join(BUILD, "spans")
    os.makedirs(span_dir, exist_ok=True)

    with Workdir() as work:
        def one_round():
            untraced.append(run_pass(workload, seed, work))
            spans_path = os.path.join(span_dir, "%s-seed%d-%d.jsonl"
                                      % (workload, seed, len(traced)))
            p = run_pass(workload, seed, work,
                         ["--trace", "--spans-out=" + spans_path])
            traced.append(p)
            layer = dict(p["layer"])
            layer.update(layer_from_spans(read_spans(spans_path)))
            layers.append(layer)
        measure(seconds, one_round, 1)

    metrics = {name: median([l.get(name, 0.0) for l in layers])
               for name, _ in PER_LAYER}
    metrics["bench.trace_overhead_s"] = (
        end_to_end(traced)["wall_s"] - end_to_end(untraced)["wall_s"])
    if workload == "halo_p1024_campaign":
        small = run_worker(["--probe=bare-rss", "--ranks=16"])["peak_rss_kb"]
        large = run_worker(["--probe=bare-rss", "--ranks=1024"])["peak_rss_kb"]
        metrics["sim.rss_kb_per_rank"] = (large - small) / (1024 - 16)
    return untraced + traced, metrics


def run_workload(workload, seed, seconds, trace):
    """Returns (result object, human-readable lines)."""
    if trace:
        passes, metrics = run_traced(workload, seed, seconds)
        units = PER_LAYER
    else:
        passes, metrics = run_untraced(workload, seed, seconds)
        units = END_TO_END
    # Spans and probes leave the virtual outputs alone, so traced and
    # untraced passes share one digest.
    attempted, failed, failures = tally(passes)
    lines = ["%s: %d pass(es), seed %d" % (workload, len(passes), seed)]
    lines += ["  %-34s %.6g %s" % (n, metrics[n], u) for n, u in units]
    if not trace:
        for name in ("wall_s", "cpu_s"):
            values = [p[name] for p in passes]
            lines.append("  %-34s %.6g s, quartile spread %.3f"
                         % (name + " median pass", median(values),
                            quartile_spread(values)))
        # Throughputs of one workload only, so not end_to_end metrics.
        for name in ("par_events_per_s", "jobs_per_s"):
            if name in passes[0]["layer"]:
                lines.append("  %-34s %.6g 1/s" % (name, median(
                    [p["layer"][name] for p in passes])))
    lines.append("  %-34s %.6g (%d failed of %d operations)"
                 % ("fail_ratio", fail_ratio(attempted, failed), failed,
                    attempted))
    lines += ["  FAILED: " + f for f in failures]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not build():
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except (RuntimeError, ValueError, KeyError, OSError,
                subprocess.TimeoutExpired) as e:
            log("perfbench: %s: %s" % (name, e))
            return 1
        print("\n".join(lines), flush=True)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({n: r for n, r in zip(names, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
