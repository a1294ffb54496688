"""Benchmark of the semirigid CLI: two closed-loop workloads and a traced run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

NAME is complex-float or exact-rational (see items.py and BENCHMARK.json for
what each runs and why).  Each workload runs in its own fresh child process
(loop.py) with a pinned environment: SEMIRIGID_SEED cleared, one BLAS thread,
the package imported from ./src.  ``--seconds`` sets the number of passes over
the workload's items, from each workload's nominal pass time, so every run of
a workload does the same work; on a host much slower than the reference one
the child stops after fewer passes rather than overrun ``--seconds`` by more
than 15%.

``--trace 0`` measures set-up time in fresh interpreters, then the workload,
and prints the end-to-end metrics; each item's latency is its mean over the
passes after its first.  ``--trace 1`` runs the untraced passes that give
every item a sample, then one pass over every item with span wrappers around
the package's public functions, and prints the per-layer metrics.
``--smoke`` runs every workload at tiny sizes in both modes and prints every
metric.  Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results and spans are written to perfbench/out/.  The exit code is 1 if any
item's answer is wrong, 2 if the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Seconds one pass takes on the reference machine (2-vCPU x86 VM shared with
# other tenants, measured while they kept it busy).
PASS_SECONDS = {"complex-float": 8.1, "exact-rational": 6.0}
WORKLOADS = tuple(PASS_SECONDS)
SETUP_PROBES = 5
SETUP_COMMAND = ("import sys, semirigid.cli as c; "
                 "sys.exit(c.main(['catalog', 'list']))")
CHILD_TIMEOUT_S = 160
# A slow host may stretch the passes to this multiple of --seconds, no more.
OVERRUN = 1.15


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SEMIRIGID_SEED"}
    env.update({"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def setup_seconds(env, probes) -> list:
    """Wall time of fresh interpreters importing the CLI and listing the catalog."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_COMMAND], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                       timeout=60)
        times.append(time.perf_counter() - start)
    return times


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond it)."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def item_latency(times) -> float:
    """An item's latency: the mean of its samples after the first, which
    warms lazy imports and caches.  On a host whose neighbours switch between
    busy and idle for tens of seconds, the mean moves with the share of busy
    time, where the best sample jumps between the two speeds."""
    return statistics.fmean(times[1:] if len(times) > 1 else times)


def end_to_end(result, setup) -> dict:
    """Throughput counts every command sent.  The percentiles are over the
    items' latencies (item_latency)."""
    per_item = list(result["latencies_s"].values())
    latency = [item_latency(times) for times in per_item]
    value, pct, beyond = tail(latency)
    counts = result["counts"]
    out = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (sum(map(len, per_item)) / sum(map(sum, per_item)), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latency), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "error_rate": (len(result["failures"]) / len(latency), "ratio"),
    }
    if counts.get("at_bound"):
        out["witness_rate"] = (counts["at_bound_with_witness"] / counts["at_bound"], "ratio")
    if counts.get("starts"):
        out["converged_rate"] = (counts["converged"] / counts["starts"], "ratio")
    out["latency_tail_at"] = (f"p{pct:.1f} of {len(latency)} items, {beyond} beyond", "")
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(result, names) -> dict:
    """Every per-layer metric named in BENCHMARK.json; 0 where nothing ran."""
    trace = result["trace"]
    layers, counts = trace["layers"], trace["counts"]
    self_total = sum(s["self_s"] for s in layers.values())

    def stat(name, key):
        return layers.get(name, {}).get(key, 0)

    derived = {
        "verdict.witness_search.restarts": (counts.get("verdict.witness_search.restarts", 0),
                                            "count"),
        "verdict.witness_search.found_ratio": (
            _ratio(counts.get("verdict.witness_search.found", 0),
                   stat("verdict.witness_search", "calls")), "ratio"),
        "verdict.mu_zero_sampler.starts": (counts.get("verdict.mu_zero_sampler.starts", 0),
                                           "count"),
        "verdict.mu_zero_sampler.converged_ratio": (
            _ratio(counts.get("verdict.mu_zero_sampler.converged", 0),
                   counts.get("verdict.mu_zero_sampler.starts", 0)), "ratio"),
        "commuting.joint_spectrum.eigenvalues_per_call": (
            _ratio(stat("scalars.eigenvalues.exact", "calls"),
                   stat("commuting.joint_spectrum", "calls")), "ratio"),
        "trace.overhead_ratio": (_ratio(trace["untraced_wall_s"], trace["wall_s"]), "ratio"),
        "trace.self_coverage": (_ratio(self_total, trace["wall_s"]), "ratio"),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            span, _, key = name.rpartition(".")
            out[name] = (stat(span, key), "s" if key == "self_s" else "count")
    return out


def run_workload(workload, seed, passes, max_seconds, trace, smoke, env, setup) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--max-seconds", str(max_seconds), "--trace", str(trace),
           "--workdir", str(OUT), "--result", f"{stem}.json"]
    if trace:
        cmd += ["--spans", f"{stem}-spans.jsonl"]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    with open(f"{stem}.json") as fh:
        result = json.load(fh)
    result["setup_s"] = setup
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh)
    return result


def report(result, metrics):
    env = result["env"]
    print(f"== {result['workload']} seed {result['seed']}: {result['items']} items in "
          f"{result['passes']} pass(es); python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}" if unit else f"  {name:48s} {value}")
    for failure in result["failures"] + result.get("trace", {}).get("failures", []):
        print(f"  FAILED {failure['id']}: {'; '.join(failure['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semirigid" / "cli.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'semirigid'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    env = pinned_env()
    trace = 1 if args.smoke else args.trace

    attempted = failed = 0
    correct = True
    final = {}
    smoke_setup = []
    for workload in workloads:
        passes = 2 if trace else max(1, round(args.seconds / PASS_SECONDS[workload]))
        try:
            if args.smoke:  # one probe, shared by the workloads
                setup = smoke_setup = smoke_setup or setup_seconds(env, 1)
            elif trace:
                setup = []
            else:
                setup = setup_seconds(env, SETUP_PROBES)
            result = run_workload(workload, args.seed, passes, OVERRUN * args.seconds, trace,
                                  args.smoke, env, setup)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        metrics, wanted = {}, []
        if args.smoke or not trace:
            metrics.update(end_to_end(result, result["setup_s"]))
            wanted += spec["end_to_end"]
        if trace:
            metrics.update(per_layer(result, [m["name"] for m in spec["per_layer"]]))
            wanted += spec["per_layer"]
        report(result, metrics)
        bad = {f["id"] for f in result["failures"]}
        if trace:
            bad |= {f["id"] for f in result["trace"]["failures"]}
        attempted += result["attempted"]
        failed += len(bad)
        correct = correct and not bad
        for m in wanted:
            value, unit = metrics[m["name"]]
            if unit != m["unit"]:
                raise SystemExit(f"metric {m['name']} measured in {unit}, declared {m['unit']}")
            key = m["name"] if len(workloads) == 1 else f"{workload}.{m['name']}"
            final[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
