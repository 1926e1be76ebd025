"""One benchmark pass in a fresh interpreter; started by run.py.

Imports every qformlab module first and notes the monotonic clock, so
the parent can take set-up time from its own reading just before the
spawn.  Then runs one workload pass, untraced or traced, and prints
one JSON line: set-up and wall time, operations, per-operation
latencies, check outcomes, peak RSS and, when traced, the per-layer
metrics.  The traced pass also writes its spans to
.perfbench/spans-<workload>.tsv under the repository root.
"""

import time
import importlib
import pkgutil

import qformlab

for _info in pkgutil.iter_modules(qformlab.__path__):
    importlib.import_module("qformlab." + _info.name)
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spawned-at", type=float, required=True, help="parent's CLOCK_MONOTONIC reading")
    p.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", default=str(ROOT / "perfbench" / "expected.json"),
                   help="expected outputs (the self-test passes a tampered copy)")
    args = p.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(qformlab.__file__).resolve().parents:
        sys.exit("qformlab was imported from %s, not from %s" % (qformlab.__file__, src))
    out = {"setup_s": READY - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return
    if args.workload is None:
        p.error("--workload is required")
    with open(args.expected) as fh:
        expected = json.load(fh)

    fn = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer("%s:%d" % (args.workload, args.seed))
        tracer.instrument()
        fn = tracer.wrap(tracing.ROOT_SPAN, fn)
    start = time.perf_counter()
    result = fn(args.seed, expected)
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = result.ops
    out["latencies_s"] = result.latencies_s
    out["checks"] = len(result.checks)
    out["failed"] = [name for name, ok in result.checks if not ok]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write(ROOT / ".perfbench" / ("spans-%s.tsv" % args.workload))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
