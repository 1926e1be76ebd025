"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py [workload ...]     # default: both

For each workload it makes two traced runs on one seed and checks that
  * span accounting closes: the per-layer self times sum to the traced
    wall time, within SUM_TOLERANCE_S;
  * exact counters repeat: every .calls metric and every counter listed
    in EXACT_COUNTERS is identical in both runs;
  * the correctness gate rejects a deliberately wrong expected value.
It prints one line per test and exits 1 if any fails.  A traced
census run takes about half a minute.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SUM_TOLERANCE_S = 1e-3
EXACT_COUNTERS = (
    "qseries.stored_coeffs",
    "etasearch.span_hits",
    "spaces.basis_expansions.misses",
    "quadforms.oracle_points",
    "newforms.pairs_checked",
    "spaces.cache_entries",
    "etasearch.cache_entries",
    "qseries.cache_entries",
    "trace.spans",
)

failures = []


def report(name, ok, detail=""):
    print("%s  %s%s" % ("ok  " if ok else "FAIL", name, ("  (" + detail + ")") if detail else ""))
    if not ok:
        failures.append(name)


def traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit("traced run of %s failed:\n%s%s" % (workload, proc.stdout, proc.stderr))
    out = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in out["metrics"].items()}


def test_traced(workload):
    first, second = traced_metrics(workload), traced_metrics(workload)
    for label, m in (("first", first), ("second", second)):
        total = sum(v for name, v in m.items() if name.endswith(".self_s"))
        gap = abs(total - m["trace.wall_s"])
        report("%s: self times sum to traced wall_s (%s run)" % (workload, label),
               gap <= SUM_TOLERANCE_S, "sum %.6f s, wall %.6f s" % (total, m["trace.wall_s"]))
    exact = [n for n in first if n.endswith(".calls")] + list(EXACT_COUNTERS)
    differ = [n for n in exact if first[n] != second[n]]
    report("%s: exact counters repeat on seed %d" % (workload, SEED), not differ,
           "differ: %s" % ", ".join(differ) if differ else "%d counters" % len(exact))


def tampered_pass(workload, edit):
    """One pass against a copy of expected.json altered by edit(); the names of failed checks."""
    expected = json.loads((HERE / "expected.json").read_text())
    edit(expected)
    path = ROOT / ".perfbench" / "expected-tampered.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(expected))
    out = run.spawn(run.pass_args(workload, SEED, 0) + ["--expected", str(path)], 600)
    return out["failed"]


def test_gate(workload):
    if workload == "census":
        def edit(e):
            e["census"]["members"]["-3"] += 1
        wanted = ["chi(-3) members"]
    else:
        result = workloads.Pass()
        exps = (1, 2, 2, 1)
        theta = workloads.quadforms.genfun(exps, 30)
        theta = [theta.qcoeff(n) for n in range(30)]
        theta[25] += 1
        oracle = workloads.quadforms.rep_counts_bruteforce(exps, 29)
        workloads.check_answers(result, exps, [(25, Fraction(oracle[25]))], theta, oracle)
        failed = [name for name, ok in result.checks if not ok]
        report("queries-certify: gate rejects a wrong theta coefficient",
               failed == ["%s n=25 theta series" % (exps,)], "failed: %s" % failed)

        def edit(e):
            e["certify"]["stdout_sha256"]["basis verify --char -3"] = "0" * 64
        wanted = ["basis verify --char -3 stdout digest"]
    failed = tampered_pass(workload, edit)
    report("%s: gate rejects wrong expected values" % workload, failed == wanted, "failed: %s" % failed)


def main(argv):
    chosen = argv or list(run.WORKLOADS)
    for workload in chosen:
        if workload not in run.WORKLOADS:
            raise SystemExit("unknown workload %r; choose from %s" % (workload, run.WORKLOADS))
        test_traced(workload)
        test_gate(workload)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
