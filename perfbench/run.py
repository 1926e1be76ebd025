"""qformlab benchmark: one command per workload, every answer checked.

    python3 perfbench/run.py --workload census --seed 1 --seconds 60 --trace 0

Load model: one closed-loop client, one process, one thread.  Passes
run one after another, each in a fresh interpreter (worker.py), so
every pass starts from cold module caches, as every CLI invocation
does.  Every pass of a run repeats the same inputs, drawn from --seed.

With --trace 0, passes repeat while the next one should end within
--seconds.  wall_s is the median pass time, and query latencies are
percentiles over the queries of each query's mean time over the passes.
On a shared virtual machine the CPU speed can change by 40% or more
every few seconds (seen on a 2-vCPU KVM guest), so no single pass, and
no single fastest repetition, is steady.
With --trace 1, one pass runs untraced and one traced, and the
per-layer metrics of the traced pass are printed with trace.overhead,
the ratio of the two wall times.

Human-readable lines go first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics, where
attempted and failed count correctness checks.  The exit code is 0
when every check passed, 1 when a check failed and 2 when the program
could not be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("census", "queries-certify")
SETUP_ONLY_STARTS = 5  # extra interpreter starts per run, for the setup_s median
DEADLINE_S = 170  # no worker may still run this many seconds after a run starts


class RunError(Exception):
    pass


def spawn(args, timeout):
    """Run worker.py once; return its JSON result line as a dict."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # start as an installed CLI does
    argv = [sys.executable, str(WORKER), *args]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            argv + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError("worker timed out after %.0f s: %s" % (timeout, " ".join(args))) from exc
    if proc.returncode != 0:
        raise RunError("worker exited with %d: %s\n%s" % (proc.returncode, " ".join(args), proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def pass_args(workload, seed, trace):
    return ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]


def percentile_ms(samples, q):
    """q-th percentile (1..99) in ms, by statistics.quantiles' exclusive method."""
    return statistics.quantiles(samples, n=100)[q - 1] * 1000


def means(runs):
    """Per position, the mean of the runs' timings."""
    return [statistics.fmean(xs) for xs in zip(*runs)]


def end_to_end(ns, started):
    spawn(["--setup-only"], DEADLINE_S)  # writes bytecode caches on a fresh checkout
    setups = [spawn(["--setup-only"], DEADLINE_S)["setup_s"] for _ in range(SETUP_ONLY_STARTS)]
    passes = []
    longest = 0.0
    # start another pass only if it should end within --seconds
    while not passes or time.monotonic() - started + longest <= ns.seconds:
        begun = time.monotonic()
        passes.append(spawn(pass_args(ns.workload, ns.seed, 0), DEADLINE_S - (begun - started)))
        longest = max(longest, time.monotonic() - begun)
    setups += [p["setup_s"] for p in passes]
    if len({(p["ops"], len(p["latencies_s"])) for p in passes}) != 1:
        raise RunError("passes of one seed did different work")
    lat = means(p["latencies_s"] for p in passes)  # every pass repeats the same queries
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (passes[0]["ops"] / wall, "1/s"),
        "query_p50_ms": (percentile_ms(lat, 50), "ms"),
        "query_p90_ms": (percentile_ms(lat, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = [
        "passes %d (fresh interpreter each, same inputs), set-up samples %d, query samples %d"
        % (len(passes), len(setups), len(lat)),
        "pass wall_s: %s" % " ".join("%.3f" % p["wall_s"] for p in passes),
    ]
    return passes, metrics, notes


def traced(ns, started):
    plain = spawn(pass_args(ns.workload, ns.seed, 0), DEADLINE_S)
    deep = spawn(pass_args(ns.workload, ns.seed, 1), DEADLINE_S - (time.monotonic() - started))
    metrics = {name: tuple(v) for name, v in deep["layers"].items()}
    metrics["trace.overhead"] = (deep["wall_s"] / plain["wall_s"], "ratio")
    notes = ["untraced pass %.3f s, traced pass %.3f s; spans in .perfbench/spans-%s.tsv"
             % (plain["wall_s"], deep["wall_s"], ns.workload)]
    return [plain, deep], metrics, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure this long (--trace 0)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if not (ROOT / "src" / "qformlab" / "__init__.py").is_file():
        print("error: no qformlab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        passes, metrics, notes = (traced if ns.trace else end_to_end)(ns, started)
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    attempted = sum(q["checks"] for q in passes)
    failed = [name for q in passes for name in q["failed"]]
    print("workload %s  seed %d  trace %d" % (ns.workload, ns.seed, ns.trace))
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print("  %-44s %14.6g (%d of %d checks failed)"
          % ("error_rate", len(failed) / attempted, len(failed), attempted))
    for name in failed[:20]:
        print("  FAILED: %s" % name)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
