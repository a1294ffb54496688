"""Closed-loop client of the semirigid CLI; run by ``run.py`` in a fresh process.

One client sends one command at a time to ``semirigid.cli.main`` in this
process and sends the next only when the previous has returned.  Each
command's latency is timed around that call alone; its report is checked
after the clock stops.  The result, a JSON object, is written to ``--result``.

Every pass replays the workload's items in an order shuffled per pass from
the seed, so each kind of item is timed at moments spread over the whole run
and not in one stretch that a busy neighbour on the host can cover.  The
slowest items, which sit above the tail percentile, run only in every k-th
pass (``Item.every``), so the others get more samples in the same time.  Each
item's report must be byte-identical every time it runs.  With ``--trace 1``
the untraced passes are followed by one pass over every item with the span
wrappers installed, whose stdout digests must agree with the untraced ones;
the tracing overhead compares its wall time with the sum of each item's
median untraced latency.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import scipy

import items
from spans import Tracer


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def pass_order(work, seed, p) -> list:
    """The items of pass p in a shuffled order; item i runs in pass p when
    (p + i) is a multiple of its ``every``."""
    order = np.random.default_rng([seed, p]).permutation(len(work))
    return [work[i] for i in order if (p + i) % work[i].every == 0]


def run_pass(cli, work, tracer=None) -> dict:
    """Send each item in turn; return per-item latency, digest, problems, counts."""
    out = {}
    for item in work:
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.item = item.id
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(item.argv)
            raised = None
        except Exception as exc:  # an escaping traceback fails the item, not the run
            code, raised = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.item = None
        text = stdout.getvalue()
        if raised is not None:
            problems, counts = [f"raised {raised}"], {}
        elif code != 0:
            problems, counts = [f"exit code {code}: {stderr.getvalue().strip()[-300:]}"], {}
        else:
            try:
                problems, counts = item.check(json.loads(text))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems, counts = [f"malformed report: {exc!r}"], {}
        out[item.id] = {"latency_s": latency, "problems": problems, "counts": counts,
                        "digest": hashlib.sha256(text.encode()).hexdigest()}
    return out


def summarize(runs) -> dict:
    """Per-item latencies over the passes, failures by item, summed counts.
    A report that differs from the item's first one is a failure."""
    first, failures, counts, latencies = {}, {}, {}, {}
    for run in runs:
        for item_id, rec in run.items():
            problems = list(rec["problems"])
            if rec["digest"] != first.setdefault(item_id, rec["digest"]):
                problems.append("report differs from the item's first report")
            if problems:
                failures.setdefault(item_id, problems)
            for key, value in rec["counts"].items():
                counts[key] = counts.get(key, 0) + value
            latencies.setdefault(item_id, []).append(rec["latency_s"])
    return {"latencies_s": latencies, "digests": first,
            "failures": [{"id": i, "problems": p} for i, p in failures.items()],
            "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=items.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--max-seconds", type=float, default=float("inf"),
                        help="start no further pass that would end after this")
    args = parser.parse_args(argv)

    from semirigid import cli

    result = {"workload": args.workload, "seed": args.seed, "passes": args.passes,
              "env": environment()}
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        work = items.build(args.workload, args.seed, workdir, args.smoke)
        # at least two passes, and enough for every item to run once
        min_passes = max(2, *(item.every for item in work))
        runs = []
        start = time.perf_counter()
        for p in range(max(args.passes, min_passes)):
            runs.append(run_pass(cli, pass_order(work, args.seed, p)))
            # on a host much slower than the reference one, stop early rather
            # than overrun the time the caller allotted
            projected = (time.perf_counter() - start) * (len(runs) + 1) / len(runs)
            if len(runs) >= min_passes and projected > args.max_seconds:
                break
        result["passes"] = len(runs)
        result.update(summarize(runs))
        result["items"] = len(work)
        result["attempted"] = (sum(map(len, result["latencies_s"].values()))
                               + len(work) * args.trace)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                order = np.random.default_rng([args.seed, len(runs)]).permutation(len(work))
                traced = run_pass(cli, [work[i] for i in order], tracer)
            finally:
                tracer.uninstall()
            traced_failures = []
            for item_id, rec in traced.items():
                problems = list(rec["problems"])
                if rec["digest"] != result["digests"][item_id]:
                    problems.append("traced report differs from the untraced one")
                if problems:
                    traced_failures.append({"id": item_id, "problems": problems})
            result["trace"] = {
                "wall_s": sum(rec["latency_s"] for rec in traced.values()),
                "untraced_wall_s": sum(statistics.median(v)
                                       for v in result["latencies_s"].values()),
                "layers": tracer.summary(),
                "counts": dict(tracer.counts),
                "failures": traced_failures,
            }
            if args.spans:
                tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
