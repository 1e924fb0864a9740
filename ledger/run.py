#!/usr/bin/env python3
"""Perf ledger: one command that builds the library and the harness from
source, runs a named workload through the public SeedMinEngine API, checks
its outputs and prints every metric by name with its unit.

  python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
                        [--record FILE]
  python3 ledger/run.py compare BASE.jsonl CHANGE.jsonl [--change-trace 1]
  python3 ledger/run.py selftest

The last line of a run's standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it carries the run's metadata. --record appends the whole
result (metadata, checks, results digest, end-to-end values even of a
traced run) to FILE as one JSON line; compare reads such files. compare
gates on untraced records only; --change-trace 1 instead compares the
change file's traced records against the base's untraced ones, which
shows the cost of tracing on each end-to-end metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger_stats  # noqa: E402

WORKLOADS = ("solve-lj-ic", "serve-mix-warm")
# Latency limit of slo_attainment per workload (seconds). The fixed
# BENCHMARK.json schema has no place for it, so it is fixed here.
SLO_LIMIT_S = {"solve-lj-ic": 5.0, "serve-mix-warm": 0.5}
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "ledger")


def build():
    """Configures and builds the harness (Release). Returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "seedmin_engine.h")):
        raise RuntimeError("no library sources under %s/src: not a full checkout" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_harness(out_dir, workload, seed, seconds, trace):
    scratch = os.path.join(out_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    raw_path = os.path.join(scratch, "raw.json")
    spans_path = os.path.join(out_dir, "spans-%s.jsonl" % workload)
    try:
        subprocess.run(
            [os.path.join(out_dir, "ledger_harness"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--out", raw_path, "--spans", spans_path, "--scratch", scratch],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=HARNESS_TIMEOUT_S)
        with open(raw_path) as f:
            return json.load(f)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def share(part, whole):
    return part / whole if whole > 0 else 0.0


def end_to_end(raw):
    """End-to-end values of one run, including the ungated tail and memory
    figures, so records can be compared on them too."""
    latency = raw["latency_s"]  # succeeded requests only: a failure misses the SLO
    met = sum(1 for value in latency if value <= SLO_LIMIT_S[raw["workload"]])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "queries_per_s": share(raw["succeeded"], raw["timed_wall_s"]),
        "latency_p50_s": ledger_stats.percentile(latency, 0.50),
        "latency_p95_s": ledger_stats.percentile(latency, 0.95),
        "slo_attainment": share(met, raw["sent"]),
        "seeds_mean": share(raw["seeds_sum"], raw["realizations"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    layers = dict(raw["layers"])
    busy = raw["busy_s"]
    sampling = share(raw["sampling_s"], busy)
    coverage = share(raw["coverage_s"], busy)
    certify = share(raw["certify_s"], busy)
    layers.update({
        "sampling.share": sampling,
        "coverage.share": coverage,
        "core.other_share": 1.0 - sampling - coverage - certify,
        "parallel.cpu_utilisation": raw["cpu_utilisation"],
        "cache.reuse_ratio": share(raw["sets_reused"],
                                   raw["sets_reused"] + raw["sets_extended"]),
        "core.rounds_per_request": share(raw["rounds"], raw["adaptive_requests"]),
        "core.sets_per_request": share(raw["sets"], raw["succeeded"]),
        "latency_p95_s": ledger_stats.percentile(raw["latency_s"], 0.95),
        "peak_rss_mb": raw["peak_rss_mb"],
        "api.queue_wait_p50_s": ledger_stats.percentile(raw["queue_wait_s"], 0.50),
        "api.queue_wait_p95_s": ledger_stats.percentile(raw["queue_wait_s"], 0.95),
        "api.service_p50_s": ledger_stats.percentile(raw["service_s"], 0.50),
        "api.rejected": raw["rejected"],
        "loadgen.lag_p99_s": ledger_stats.percentile(raw["lag_s"], 0.99),
        "loadgen.sent": raw["sent"],
        "loadgen.succeeded": raw["succeeded"],
        "loadgen.failed": raw["failed"],
    })
    return layers


def checks(raw):
    out = list(raw["checks"])
    if raw["workload"].startswith("serve-"):
        ok = ledger_stats.supported(len(raw["latency_s"]), 0.95)
        out.append({"name": "latency_p95.supported", "ok": ok,
                    "detail": "" if ok else "fewer than %d samples beyond p95"
                    % ledger_stats.MIN_BEYOND})
    return out


def run(args):
    bench = load_benchmark()
    out_dir = build()
    raw = run_harness(out_dir, args.workload, args.seed, args.seconds, args.trace)
    e2e = end_to_end(raw)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer(raw) if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    run_checks = checks(raw)
    for check in run_checks:
        if not check["ok"]:
            log("check failed: %s: %s" % (check["name"], check["detail"]))
    meta = dict(raw["meta"])
    meta.update({
        "git_sha": git_sha(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_requests": raw["sent"],
        "slo_limit_s": SLO_LIMIT_S[args.workload],
        "percentile_basis": {
            "latency_p50_s": ledger_stats.percentile_basis(len(raw["latency_s"]), 0.50),
            "latency_p95_s": ledger_stats.percentile_basis(len(raw["latency_s"]), 0.95),
        },
        "results_digest": raw["results_digest"],
    })
    result = {
        "correct": all(check["ok"] for check in run_checks),
        "attempted": raw["sent"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "meta": meta, "checks": run_checks,
                                "end_to_end": e2e, "result": result}) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(base_path, change_path, change_trace=0):
    """Applies the section-8 rule per workload x end-to-end metric; exits 1
    when any row regressed. Only untraced base records count; the change
    file's records count when their trace flag equals change_trace."""
    bench = load_benchmark()
    base = load_records(base_path)
    change = load_records(change_path)
    regressed = False
    row_format = "%-16s %-15s %-30s %-30s %6s  %s"
    print(row_format % ("workload", "metric", "base median [q1, q3]",
                        "change median [q1, q3]", "won", "verdict"))
    for workload in [w["name"] for w in bench["workloads"]]:
        b_runs = ledger_stats.select_runs(base, workload, trace=0)
        c_runs = ledger_stats.select_runs(change, workload, trace=change_trace)
        if not b_runs or not c_runs:
            continue
        c_by_seed = {r["seed"]: r for r in c_runs}
        paired = [(b, c_by_seed[b["seed"]]) for b in b_runs if b["seed"] in c_by_seed]
        if not paired:
            paired = list(zip(b_runs, c_runs))
        failed_row = ledger_stats.compare_failed_share(
            [share(r["result"]["failed"], r["result"]["attempted"]) for r in b_runs],
            [share(r["result"]["failed"], r["result"]["attempted"]) for r in c_runs])
        more_failures = failed_row["verdict"] == ledger_stats.REGRESSED
        rows = []
        for metric in bench["end_to_end"]:
            name = metric["name"]
            rows.append((name, ledger_stats.compare_metric(
                [r["end_to_end"][name] for r in b_runs],
                [r["end_to_end"][name] for r in c_runs],
                metric["better"], metric["bound"],
                pairs=[(b["end_to_end"][name], c["end_to_end"][name]) for b, c in paired],
                more_failures=more_failures)))
        rows.append(("failed_share", failed_row))
        for name, row in rows:
            regressed = regressed or row["verdict"] == ledger_stats.REGRESSED
            bq, cq = row["base_quartiles"], row["change_quartiles"]
            won = "-" if row["share_won"] is None else "%.2f" % row["share_won"]
            print(row_format % (
                workload, name,
                "%.4g [%.4g, %.4g]" % (row["base_median"], bq[0], bq[2]),
                "%.4g [%.4g, %.4g]" % (row["change_median"], cq[0], cq[2]),
                won, row["verdict"]))
    return 1 if regressed else 0


def selftest():
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(suite).wasSuccessful()
    out_dir = build()
    loadgen = subprocess.run([os.path.join(out_dir, "ledger_loadgen_test")])
    return 0 if ok and loadgen.returncode == 0 else 1


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        parser.add_argument("--change-trace", type=int, choices=(0, 1), default=0,
                            help="1: compare the change's traced runs (cost of tracing)")
        args = parser.parse_args(argv[1:])
        try:
            return compare(args.base, args.change, args.change_trace)
        except ValueError as err:
            log("compare: %s" % err)
            return 2
    if argv and argv[0] == "selftest":
        return selftest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSONL file")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        log("ledger: %s" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
