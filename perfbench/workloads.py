"""The two benchmark workloads.

Each workload runs once per fresh interpreter (one "pass").  It derives
every input from the seed alone, so every pass of a run repeats the same
operations; it calls the program on them, times each operation, and
checks every answer.  It returns a Pass; a failed check is recorded,
never raised, so it counts in the error rate.

census           enumerate_space for all four characters plus
                 census_crosscheck: the eta-quotient walk, ligozat
                 re-checks and span tests (etaq, etasearch).  A query is
                 a block of 64 consecutive census members classified by
                 eisenstein_expressible.
queries-certify  four seeded forms per character, each asked for r(n) at
                 n log-spread over 1..1200 (derive_formula on first use,
                 then rep_count_formula): qseries, spaces.basis_expansions
                 and characters.sigma_twisted, never the census path of
                 etaq and etasearch.  n < 61 reuses the precision-61
                 expansion cache entry; every n >= 61 is a distinct
                 precision and misses it.  A query is one (form, n).
                 Then the certificate subcommands through cli.main, one
                 character or newform at a time, plus rederive_newform
                 for the three field newforms: arith and newforms.  Each
                 certificate is one operation but not a query.
"""

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field

from qformlab import cli, etasearch, newforms, quadforms, spaces

from tracing import CACHES, cache_entries

# q-precision of the two long certificate checks; the recorded stdout
# digests in expected.json belong to exactly these argument lists
NEWFORM_PRECISION = 250
REMARK_PRECISION = 600

FORMS_PER_CHAR = 4  # two with an x^2 term, two without
SMALL_PER_FORM = 6  # queries with n < 61
LARGE_PER_FORM = 2  # queries with 61 <= n <= 1200
PER_FORM = SMALL_PER_FORM + LARGE_PER_FORM
CACHED_PRECISION = 61  # rep_count_formula's default expansion precision
CENSUS_BLOCK = 64  # consecutive member classifications per census query


@dataclass
class Pass:
    ops: int = 0
    latencies_s: list = field(default_factory=list)  # per query, in order
    checks: list = field(default_factory=list)  # (name, ok)

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def _timed(module, name, sink):
    """Append the duration of every call of module.name to sink."""
    inner = getattr(module, name)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        try:
            return inner(*args, **kwargs)
        finally:
            sink.append(clock() - start)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, inner)


def _check_cold(result):
    """Every module cache must start empty: each pass pays a cold start."""
    for attrs in CACHES.values():
        for module, attr in attrs:
            result.check("cold start: %s.%s empty" % (module, attr), cache_entries(((module, attr),)) == 0)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def census(seed, expected):
    result = Pass()
    _check_cold(result)
    rng = _rng("census", seed)
    discs = list(spaces.SPACE_DISCRIMINANTS)
    rng.shuffle(discs)

    # time each member classification where enumerate_space looks it up;
    # a query is a block of classifications
    member_s = []
    with _timed(etasearch, "eisenstein_expressible", member_s):
        spaces_found = {d: etasearch.enumerate_space(d) for d in discs}
    result.latencies_s = [sum(member_s[i:i + CENSUS_BLOCK]) for i in range(0, len(member_s), CENSUS_BLOCK)]
    cross = etasearch.census_crosscheck(seed=rng.randrange(2**32))

    result.ops += sum(len(r.members) for r in spaces_found.values())
    exp = expected["census"]
    for d in spaces.SPACE_DISCRIMINANTS:
        r = spaces_found[d]
        result.check("chi(%d) members" % d, len(r.members) == exp["members"][str(d)])
        result.check("chi(%d) expressible" % d, len(r.eisenstein_expressible) == exp["expressible"][str(d)])
    members = sorted(f.label() for r in spaces_found.values() for f in r.members)
    result.check("member labels digest", _sha256("\n".join(members)) == exp["members_sha256"])
    hits = sorted(
        "%s %s" % (f.label(), " ".join(str(x) for x in coords))
        for r in spaces_found.values()
        for f, coords in r.eisenstein_expressible
    )
    result.check("expressible digest", _sha256("\n".join(hits)) == exp["expressible_sha256"])
    result.check("census_crosscheck ok", cross.ok and cross.samples == 40)
    return result


# ---------------------------------------------------------------------------
# queries-certify
# ---------------------------------------------------------------------------

def _log_grid(lo, hi, count):
    """count ascending integers from lo to hi, evenly spread in log n."""
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]


# The n of a pass: log-spread grids over 1..60 and 61..1200, each moved up
# by a seeded offset of at most 2 (large n stay distinct, so each misses
# the expansion cache).  One fixed shuffle orders a form's queries: the
# order of the large n decides what the eta-power cache of qseries already
# holds (about a third of a large query's cost), so it is the same for
# every seed.
SMALL_GRID = _log_grid(1, CACHED_PRECISION - 3, FORMS_PER_CHAR * SMALL_PER_FORM)
LARGE_GRID = _log_grid(CACHED_PRECISION, 1198, FORMS_PER_CHAR * LARGE_PER_FORM)
QUERY_ORDER = random.Random("rep-queries order").sample(range(PER_FORM), PER_FORM)


def query_plan(seed):
    """[(exponents, [n, ...]), ...] in query order; four forms per character.

    Per character the seed picks two forms with an x^2 term (l1 > 0, whose
    theta series has an eta(z) factor and costs most to expand) and two
    without.  Every character gets the same n, dealt in turn to its four
    forms, so each form gets one lower and one higher large n.  Query
    costs differ threefold and more from form to form, so more forms
    make the cost of a pass depend less on the seed.
    """
    rng = _rng("rep-queries", seed)
    ns = [n + rng.randrange(3) for n in SMALL_GRID], [n + rng.randrange(3) for n in LARGE_GRID]
    plan = []
    half = FORMS_PER_CHAR // 2
    for d in spaces.SPACE_DISCRIMINANTS:
        forms = [e for e in quadforms.all_forms() if quadforms.classify(e).discriminant == d]
        with_x2 = rng.sample([e for e in forms if e[0]], half)
        without = rng.sample([e for e in forms if not e[0]], half)
        for i, exps in enumerate(e for pair in zip(with_x2, without) for e in pair):
            mine = sorted(ns[0][i::FORMS_PER_CHAR] + ns[1][i::FORMS_PER_CHAR])
            plan.append((exps, [mine[k] for k in QUERY_ORDER]))
    return plan


def check_answers(result, exps, answers, theta, oracle):
    """Each answer is an integer, equals the theta coefficient, and equals
    the brute-force count where one was enumerated."""
    for n, value in answers:
        tag = "%s n=%d" % (exps, n)
        result.check(tag + " integer", value.denominator == 1)
        result.check(tag + " theta series", value == theta[n])
        if n < len(oracle):
            result.check(tag + " brute force", value == oracle[n])


def _rep_queries(result, seed):
    clock = time.perf_counter
    for exps, ns in query_plan(seed):
        row = None
        answers = []
        for n in ns:
            start = clock()
            if row is None:
                row = quadforms.derive_formula(exps)
            value = quadforms.rep_count_formula(row, n)
            result.latencies_s.append(clock() - start)
            answers.append((n, value))
        theta = quadforms.genfun(exps, max(ns) + 1)
        theta = [theta.qcoeff(n) for n in range(max(ns) + 1)]
        small = [n for n in ns if n < CACHED_PRECISION]
        oracle = quadforms.rep_counts_bruteforce(exps, max(small)) if small else []
        check_answers(result, exps, answers, theta, oracle)
        result.ops += len(answers)


def certificate_argvs():
    """Every cli.main certificate check, one character or newform at a time."""
    discs = [str(d) for d in spaces.SPACE_DISCRIMINANTS]
    argvs = [["basis", "verify", "--char", d] for d in discs]
    argvs += [["derive-table", "--char", d] for d in discs]
    argvs += [["verify-tables", "--char", d] for d in discs]
    argvs += [
        ["verify-newforms", "--index", str(i), "--precision", str(NEWFORM_PRECISION)]
        for i in range(1, len(newforms.NEWFORMS) + 1)
    ]
    argvs.append(["verify-remarks", "--precision", str(REMARK_PRECISION)])
    return argvs


FIELD_NEWFORMS = tuple(s.name for s in newforms.NEWFORMS if s.field is not None)


def rederived_text(red):
    """Stable rendering of a rederived newform: operator, field, combo."""
    return "%s %s %s %s" % (
        red.name,
        red.operator,
        [str(c) for c in red.field_poly],
        [x.serialize() for x in red.combo],
    )


def _certify(result, seed, expected):
    exp = expected["certify"]
    tasks = [("cli", argv) for argv in certificate_argvs()]
    tasks += [("rederive", name) for name in FIELD_NEWFORMS]
    _rng("certify", seed).shuffle(tasks)
    for kind, arg in tasks:
        if kind == "cli":
            key = " ".join(arg)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(arg)
            result.check(key + " exit 0", code == 0)
            result.check(key + " stdout digest", _sha256(out.getvalue()) == exp["stdout_sha256"][key])
        else:
            red = newforms.rederive_newform(arg)
            result.check("rederive %s hecke ok" % arg, red.ok and red.minpoly_match)
            result.check("rederive %s digest" % arg, _sha256(rederived_text(red)) == exp["rederive_sha256"][arg])
        result.ops += 1


def queries_certify(seed, expected):
    result = Pass()
    _check_cold(result)
    _rep_queries(result, seed)
    _certify(result, seed, expected)
    return result


WORKLOADS = {"census": census, "queries-certify": queries_certify}
