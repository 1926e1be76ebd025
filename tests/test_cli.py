import dataclasses
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qformlab import cli, newforms
from qformlab.cli import (
    EISENSTEIN_MAX_PRECISION,
    ENUMERATOR_MAX_N,
    ETA_MAX_COEFFS,
    ETA_MAX_EXPONENT_SUM,
    FORMULA_CUSP_MAX_N,
    FORMULA_EISENSTEIN_MAX_N,
    NEWFORMS_MAX_PRECISION,
    REMARKS_MAX_PRECISION,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eta_expand(capsys):
    code, out, _ = run_cli(capsys, "eta-expand", "eta24[0,3,0,-4,-5,2,16,-6]", "--precision", "5")
    assert code == 0
    assert out.strip() == "eta24[0,3,0,-4,-5,2,16,-6] = q - 3*q^3 + 4*q^5 + O(q^6)"


def test_eta_expand_fractional_grade(capsys):
    code, out, _ = run_cli(capsys, "eta-expand", "eta1[1]", "--precision", "2")
    assert code == 0
    assert "q^(1/24)" in out


def test_eta_expand_json_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "eta-expand", "eta24[0,3,0,-4,-5,2,16,-6]", "--precision", "8", "--json")
    code2, second, _ = run_cli(capsys, "eta-expand", "eta24[0,3,0,-4,-5,2,16,-6]", "--precision", "8", "--json")
    assert code == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["label"] == "eta24[0,3,0,-4,-5,2,16,-6]"
    assert list(payload) == sorted(payload)


def test_eta_expand_precision_below_order_exits_2(capsys):
    # the error speaks in powers of q, not in grade-24 exponents
    code, out, err = run_cli(capsys, "eta-expand", "eta24[0,3,0,-4,-5,2,16,-6]", "--precision", "0")
    assert code == 2
    assert out == ""
    assert "--precision 0 is below the order at infinity 1 of eta24[0,3,0,-4,-5,2,16,-6]" in err
    code, out, _ = run_cli(capsys, "eta-expand", "eta8[0,0,3,0]", "--precision", "0")
    assert code == 0
    assert out.strip() == "eta8[0,0,3,0] = q^(1/2) + O(q)"


def test_repeated_calls_share_no_parse_state(capsys):
    # the parser is built once per process: an option or a usage error of
    # one call must not leak into the next
    first = run_cli(capsys, "verify-remarks", "--precision", "20")
    assert run_cli(capsys, "verify-remarks", "--precision", "20", "--json")[0] == 0
    assert run_cli(capsys, "eisenstein", "E3[-4,1,2]", "--precision", "9")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["rep-count", "--form", "1,1,1,1,1,1"])
    assert exc.value.code == 2
    usage = capsys.readouterr()
    assert usage.out == ""
    assert run_cli(capsys, "verify-remarks", "--precision", "20") == first
    assert first[0] == 0 and first[1]
    with pytest.raises(SystemExit):
        main(["rep-count", "--form", "1,1,1,1,1,1"])
    assert capsys.readouterr() == usage


def test_bad_label_exits_2(capsys):
    code, _, err = run_cli(capsys, "eta-expand", "eta24[1,2]")
    assert code == 2
    assert "error" in err.lower()


def test_ligozat_check_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "ligozat-check", "eta24[0,3,0,-4,-5,2,16,-6]")
    assert code == 0
    assert "holomorphic: True" in out
    code, out, _ = run_cli(capsys, "ligozat-check", "eta24[1,0,0,0,0,0,0,5]")
    assert code == 1


def test_eisenstein(capsys):
    code, out, _ = run_cli(capsys, "eisenstein", "E3[-4,1]", "--precision", "5")
    assert code == 0
    assert out.strip() == "E3[-4,1,1] = -1/4 + q + q^2 - 8*q^3 + q^4 + 26*q^5 + O(q^6)"


def test_eisenstein_negative_precision_exits_2(capsys):
    code, out, err = run_cli(capsys, "eisenstein", "E3[-4,1,1]", "--precision", "-1")
    assert code == 2 and out == ""
    assert "--precision must be nonnegative" in err
    code, out, _ = run_cli(capsys, "eisenstein", "E3[-4,1,1]", "--precision", "0")
    assert code == 0
    assert out.strip() == "E3[-4,1,1] = -1/4 + O(q)"


def test_rep_count_compare_agrees(capsys):
    code, out, _ = run_cli(capsys, "rep-count", "--form", "1,1,1,1,1,1", "--n", "10")
    assert code == 0
    assert out.strip() == "1560"


def test_rep_count_oracle_only(capsys):
    code, out, _ = run_cli(capsys, "rep-count", "--form", "1,2,3,6,6,6", "--n", "0", "--oracle")
    assert code == 0
    assert out.strip() == "1"


def test_rep_count_formula_n0(capsys):
    # the identity covers n >= 1; n = 0 falls back to the constant count
    code, out, _ = run_cli(capsys, "rep-count", "--form", "1,1,1,1,1,1", "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_rep_count_rejects_bad_form(capsys):
    code, _, err = run_cli(capsys, "rep-count", "--form", "1,1,1,1,1,4", "--n", "3")
    assert code == 2


def test_rep_count_json(capsys):
    code, out, _ = run_cli(capsys, "rep-count", "--form", "1,1,2,2,3,6", "--n", "25", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"count": 820, "form": [1, 1, 2, 2, 3, 6], "method": "both", "n": 25}


def test_rep_count_reads_the_coefficients_in_any_order(capsys):
    # --form is converted once to the exponent tuple; the JSON form and
    # the mismatch label are its coefficients, ascending
    code, out, err = run_cli(capsys, "rep-count", "--form", "6,3,2,2,1,1", "--n", "25", "--json")
    assert code == 0 and err == ""
    assert out == '{"count": 820, "form": [1, 1, 2, 2, 3, 6], "method": "both", "n": 25}\n'


def test_rep_count_names_a_formula_mismatch(capsys, monkeypatch):
    true_formula = cli.rep_count_formula
    monkeypatch.setattr(cli, "rep_count_formula", lambda row, n: true_formula(row, n) + 1)
    code, out, err = run_cli(capsys, "rep-count", "--form", "6,3,2,2,1,1", "--n", "25")
    assert code == 1 and out == ""
    assert err == "mismatch: oracle 820 != formula 821 for 1,1,2,2,3,6 at n=25\n"


def test_rep_count_refuses_a_non_integer_formula(capsys, monkeypatch):
    monkeypatch.setattr(cli, "rep_count_formula", lambda row, n: Fraction(1, 2))
    code, out, err = run_cli(capsys, "rep-count", "--form", "6,3,2,2,1,1", "--n", "25")
    assert code == 1 and out == ""
    assert err == "formula produced a non-integer count 1/2\n"


def test_rep_count_mode_flags_exclude_each_other(capsys):
    # both flags would run both sides yet report one method
    with pytest.raises(SystemExit) as exc:
        main(["rep-count", "--form", "1,1,2,2,3,6", "--n", "25", "--oracle", "--formula"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "usage:" in out.err and "not allowed with argument" in out.err
    for flag in ("--oracle", "--formula"):
        code, out, _ = run_cli(capsys, "rep-count", "--form", "1,1,2,2,3,6", "--n", "25", flag, "--json")
        assert code == 0
        assert json.loads(out) == {"count": 820, "form": [1, 1, 2, 2, 3, 6], "method": flag[2:], "n": 25}


@pytest.mark.parametrize(
    "form, n, flag, bound",
    [
        # pure Eisenstein: sigma_twisted would trial-divide up to 10^10
        ("1,1,1,1,1,1", 10**20, "--formula", FORMULA_EISENSTEIN_MAX_N),
        # default mode runs the cubic enumerator
        ("1,1,2,2,3,6", 3000, None, ENUMERATOR_MAX_N),
        ("1,1,2,2,3,6", ENUMERATOR_MAX_N + 1, "--oracle", ENUMERATOR_MAX_N),
        # the cusp expansions would grow to q^200000
        ("1,1,2,2,3,6", 200000, "--formula", FORMULA_CUSP_MAX_N),
        ("1,1,2,2,3,6", FORMULA_CUSP_MAX_N + 1, "--formula", FORMULA_CUSP_MAX_N),
    ],
)
def test_rep_count_refuses_n_past_its_bound(capsys, form, n, flag, bound):
    argv = ["rep-count", "--form", form, "--n", str(n)] + ([flag] if flag else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "bound %d" % bound in err


def test_rep_count_bounds_order():
    # the default mode checks both sides, so the enumerator bound is the
    # one it meets first
    assert ENUMERATOR_MAX_N < FORMULA_CUSP_MAX_N < FORMULA_EISENSTEIN_MAX_N


# eta1[-128] has order -16/3, so --precision P asks for P + 7 q-steps
@pytest.mark.parametrize(
    "argv, bound",
    [
        # 41867 coefficients; at 1000 or 3000 of them the kernel took 3 s
        # or 63 s, since their size grows with the exponents
        (("eta-expand", "eta1[-1000000]", "--precision", "200"), ETA_MAX_EXPONENT_SUM),
        (("eta-expand", "eta1[-1000000]", "--precision", "-40668"), ETA_MAX_EXPONENT_SUM),
        (("eta-expand", "eta1[-1000000]", "--precision", "-38668"), ETA_MAX_EXPONENT_SUM),
        (("eta-expand", "eta1[-1000]", "--precision", "4957"), ETA_MAX_EXPONENT_SUM),
        (("eta-expand", "eta1[-%d]" % (ETA_MAX_EXPONENT_SUM + 1), "--precision", "0"), ETA_MAX_EXPONENT_SUM),
        (("eta-expand", "eta1[-24]", "--precision", "7998"), ETA_MAX_COEFFS),
        (("eta-expand", "eta1[24]", "--precision", "20000"), ETA_MAX_COEFFS),
        (("eta-expand", "eta24[0,3,0,-4,-5,2,16,-6]", "--precision", "10000"), ETA_MAX_COEFFS),
        (("eta-expand", "eta1[-128]", "--precision", str(ETA_MAX_COEFFS - 6)), ETA_MAX_COEFFS),
        (("eta-expand", "eta24[0,3,0,-4,-5,2,16,-6]", "--precision", str(ETA_MAX_COEFFS + 1)), ETA_MAX_COEFFS),
        (("eisenstein", "E3[-4,1,1]", "--precision", "1000000"), EISENSTEIN_MAX_PRECISION),
        (("eisenstein", "E3[-4,1,1]", "--precision", "200000"), EISENSTEIN_MAX_PRECISION),
        (("eisenstein", "E3[-4,1,1]", "--precision", str(EISENSTEIN_MAX_PRECISION + 1)), EISENSTEIN_MAX_PRECISION),
        (("verify-newforms", "--precision", "5000"), NEWFORMS_MAX_PRECISION),
        (("verify-newforms", "--precision", str(NEWFORMS_MAX_PRECISION + 1)), NEWFORMS_MAX_PRECISION),
        (("verify-remarks", "--precision", "20000"), REMARKS_MAX_PRECISION),
        (("verify-remarks", "--precision", "10000"), REMARKS_MAX_PRECISION),
        (("verify-remarks", "--precision", str(REMARKS_MAX_PRECISION + 1)), REMARKS_MAX_PRECISION),
    ],
)
def test_precision_past_its_bound_exits_2_at_once(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "bound %d" % bound in err


def test_precision_bounds_cover_the_certificates():
    # the certificate precisions the benchmark runs, and the largest
    # census exponent sum, lie inside the bounds
    assert 250 <= NEWFORMS_MAX_PRECISION and 600 <= REMARKS_MAX_PRECISION
    assert ETA_MAX_EXPONENT_SUM >= 108


# each bound lowered to a cheap value: the bound itself is answered and
# one past it refused; eta1[-24] has order -1, so --precision P asks for
# P + 2 q-steps
@pytest.mark.parametrize(
    "bound, value, at, past",
    [
        ("ETA_MAX_COEFFS", 20, ("eta-expand", "eta1[-24]", "--precision", "18"),
         ("eta-expand", "eta1[-24]", "--precision", "19")),
        ("ETA_MAX_EXPONENT_SUM", 24, ("eta-expand", "eta1[-24]"), ("eta-expand", "eta2[-24,1]")),
        ("EISENSTEIN_MAX_PRECISION", 20, ("eisenstein", "E3[-4,1,1]", "--precision", "20"),
         ("eisenstein", "E3[-4,1,1]", "--precision", "21")),
        ("NEWFORMS_MAX_PRECISION", 20, ("verify-newforms", "--index", "3", "--precision", "20"),
         ("verify-newforms", "--index", "3", "--precision", "21")),
        ("REMARKS_MAX_PRECISION", 20, ("verify-remarks", "--precision", "20"),
         ("verify-remarks", "--precision", "21")),
    ],
)
def test_precision_bound_is_inclusive(capsys, monkeypatch, bound, value, at, past):
    monkeypatch.setattr(cli, bound, value)
    assert run_cli(capsys, *at)[0] == 0
    code, out, err = run_cli(capsys, *past)
    assert code == 2 and out == ""
    assert "above the bound %d" % value in err


def test_verify_newforms_falls_back_to_rederivation(capsys, monkeypatch):
    # f2 with one printed coordinate moved fails its Hecke check; the
    # rederivation from T_5 still finds the field and a Hecke eigenform,
    # whose eigenvalue polynomial is not that of the moved combo
    spec = newforms.get_spec("f2")
    combo = (spec.combo[0], (3, 1)) + spec.combo[2:]
    assert spec.combo[1] == (2, 1)
    moved = dataclasses.replace(spec, combo=combo)
    monkeypatch.setattr(
        newforms, "NEWFORMS", tuple(moved if s.name == "f2" else s for s in newforms.NEWFORMS)
    )
    code, out, _ = run_cli(capsys, "verify-newforms", "--index", "2", "--precision", "60")
    assert code == 1
    assert out.splitlines() == [
        "f2: hecke FAIL (a(1) ok, 40 coprime pairs, p^2 relations 5:FAIL,7:FAIL)",
        "  fallback T_5: field ['528', '0', '72', '0', '1'], hecke ok, printed-minpoly match False (ok)",
    ]
    code, out, _ = run_cli(capsys, "verify-newforms", "--index", "2", "--precision", "60", "--json")
    assert code == 1
    assert json.loads(out) == {
        "f2": {
            "fallback": {
                "operator": [5],
                "field_poly": ["528", "0", "72", "0", "1"],
                "hecke_ok": True,
                "matches_printed_minpoly": False,
                "note": "ok",
            },
            "hecke_ok": False,
            "pairs_checked": 40,
        }
    }


def test_basis_dump(capsys):
    code, out, _ = run_cli(capsys, "basis", "dump", "--char", "-24")
    assert code == 0
    assert "dimension 10" in out
    assert out.count("E3[") == 4
    assert out.count("eta24[") == 6


def test_basis_verify(capsys):
    code, out, _ = run_cli(capsys, "basis", "verify", "--char", "-3")
    assert code == 0
    assert "rank 12/12" in out
    assert "pass" in out


def test_derive_table_row_count(capsys):
    code, out, _ = run_cli(capsys, "derive-table", "--char", "-8")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 20


def test_verify_remarks_guard(capsys):
    code, _, err = run_cli(capsys, "verify-remarks", "--precision", "5")
    assert code == 2
    assert "13" in err


def test_verify_remarks(capsys):
    code, out, _ = run_cli(capsys, "verify-remarks", "--precision", "14")
    assert code == 0
    assert out.count("ok through q^14") == 9


def test_census_requires_char_for_emit(capsys, tmp_path):
    code, _, err = run_cli(capsys, "census", "--emit", str(tmp_path / "x.txt"))
    assert code == 2


@pytest.mark.slow
def test_census_emit(capsys, tmp_path):
    target = tmp_path / "census.txt"
    code, out, _ = run_cli(capsys, "census", "--char", "-24", "--emit", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    members = [l for l in lines if l.startswith("eta24[")]
    assert len(members) == 2424
    assert lines[-1] == "# members 2424 expressible 0"


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "qformlab.cli", "eta-expand", "eta4[-2,5,-2]", "--precision", "4"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "1 + 2*q" in out.stdout
