import json
import subprocess
import sys

import pytest

from qformlab.cli import (
    ENUMERATOR_MAX_N,
    FORMULA_CUSP_MAX_N,
    FORMULA_EISENSTEIN_MAX_N,
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
