"""CLI contract tests: output formats and the 0/1/2 exit-code contract."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from partrec.cli import VERIFY_MAX_N, main
from partrec.dsl import MAX_ORDER
from partrec.recurrences import TheoremId

from conftest import PAPER_QID, REPO_ROOT


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_csv(capsys):
    code, out, _ = run_cli(capsys, "compute", "po_bar", "--n", "9", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 11
    assert lines[-1] == "9,30"


def test_compute_plain_values(capsys):
    code, out, _ = run_cli(capsys, "compute", "p", "--n", "5")
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.splitlines()]
    assert values == [1, 1, 2, 3, 5, 7]


def test_compute_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "qbar", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"function": "qbar", "n_max": 3, "values": [1, 2, 3, 6]}


def test_compute_unknown_function(capsys):
    code, out, err = run_cli(capsys, "compute", "nosuch", "--n", "5")
    assert code == 2
    assert out == ""
    assert "unknown function" in err


def test_compute_negative_n(capsys):
    code, _, err = run_cli(capsys, "compute", "p", "--n", "-1")
    assert code == 2 and "nonnegative" in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["compute", "p", "--n", str(MAX_ORDER + 1)], MAX_ORDER),
        (["verify", "all", "--n", "-1"], VERIFY_MAX_N),
        (["verify", "T1", "--n", str(VERIFY_MAX_N + 1)], VERIFY_MAX_N),
        (["verify", "all", "--n", str(VERIFY_MAX_N + 1)], VERIFY_MAX_N),
    ],
)
def test_n_out_of_budget(capsys, argv, bound):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"--n must be nonnegative and at most {bound}" in err


def test_compute_at_max_order(capsys):
    code, out, _ = run_cli(capsys, "compute", "pd", "--n", str(MAX_ORDER), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["values"]) == MAX_ORDER + 1


def test_compute_csv_is_bit_stable(capsys):
    _, first, _ = run_cli(capsys, "compute", "peed", "--n", "64", "--format", "csv")
    _, second, _ = run_cli(capsys, "compute", "peed", "--n", "64", "--format", "csv")
    assert first == second


# ---------------------------------------------------------------------------
# verify


def test_verify_single_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify", "T3", "--n", "200")
    assert code == 0
    assert out.startswith("T3: pass")


def test_verify_single_at_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "T1", "--n", "0")
    assert code == 0 and "pass" in out


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "60", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["theorem"] for r in reports] == [t.value for t in TheoremId]
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["first_failure"] is None for r in reports)


def test_verify_all_threaded_matches_sequential(capsys):
    code, seq, _ = run_cli(capsys, "verify", "all", "--n", "40", "--format", "csv")
    assert code == 0
    code, par, _ = run_cli(capsys, "verify", "all", "--n", "40", "--format", "csv", "--threads", "4")
    assert code == 0
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(seq) == strip(par)  # same rows, timing column aside


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "T99", "--n", "5")
    assert code == 2 and "unknown theorem" in err


def test_verify_case_insensitive_id(capsys):
    code, out, _ = run_cli(capsys, "verify", "t_qbar", "--n", "50")
    assert code == 0 and out.startswith("T_QBAR: pass")


# ---------------------------------------------------------------------------
# check


def test_check_bundled_identities(capsys):
    code, out, _ = run_cli(capsys, "check", str(PAPER_QID), "--order", "50")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines and all(": pass" in line for line in lines)


def test_check_failing_statement(tmp_path, capsys):
    bad = tmp_path / "wrong.qid"
    bad.write_text("po_bar == pd within 5\n")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "fail" in out and "q^1" in out


def test_check_parse_error(tmp_path, capsys):
    malformed = tmp_path / "bad.qid"
    malformed.write_text("p == p within 5\nP(q^1; q^2 ==\n")
    code, out, err = run_cli(capsys, "check", str(malformed))
    assert code == 2
    assert out == ""
    assert "line 2" in err and "col 12" in err


@pytest.mark.parametrize("order", [-1, 0, MAX_ORDER + 1])
def test_check_order_out_of_range(capsys, order):
    code, out, err = run_cli(capsys, "check", str(PAPER_QID), "--order", str(order))
    assert code == 2
    assert out == ""
    assert f"--order must be within 1..{MAX_ORDER}" in err


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "no/such/file.qid")
    assert code == 2 and "cannot read" in err


def test_check_eval_error_counts_as_failure(tmp_path, capsys):
    div0 = tmp_path / "div.qid"
    div0.write_text("p / (pd - pd) == p within 10\n")
    code, out, _ = run_cli(capsys, "check", str(div0))
    assert code == 1
    assert "fail" in out and "pd - pd" in out


def test_check_extract_over_budget_counts_as_failure(tmp_path, capsys):
    path = tmp_path / "huge.qid"
    path.write_text("extract(po_bar, 1000000, 0) == po_bar within 5000\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "fail" in out and "extract(po_bar, 1000000, 0)" in out


def test_check_threaded_output_order(tmp_path, capsys):
    path = tmp_path / "many.qid"
    path.write_text(
        "p == 1 / P(q^1; q^1) within 60\n"
        "pd == P(-q^1; q^1) within 60\n"
        "pdo == P(-q^1; q^2) within 60\n"
        "qbar == P(-q^1; q^1)^2 within 60\n"
    )
    code, seq, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    code, par, _ = run_cli(capsys, "check", str(path), "--threads", "4")
    assert code == 0
    names = lambda text: [line.split(":")[0] for line in text.splitlines()]
    assert names(seq) == names(par)


# ---------------------------------------------------------------------------
# oracle-compare


def test_oracle_compare_overpartitions(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "op", "--n", "3")
    assert code == 0
    assert "ok n=3 value=8" in out
    assert "agree for 0 <= n <= 3" in out


def test_oracle_compare_reports_n10_for_po_bar(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "po_bar", "--n", "12")
    assert code == 0
    assert "ok n=10 value=40" in out


def test_oracle_compare_p2(capsys):
    code, _, _ = run_cli(capsys, "oracle-compare", "p2", "--n", "25")
    assert code == 0


def test_oracle_compare_envelope(capsys):
    code, _, err = run_cli(capsys, "oracle-compare", "p", "--n", "61")
    assert code == 2 and "envelope" in err


def test_oracle_compare_unknown_function(capsys):
    code, _, err = run_cli(capsys, "oracle-compare", "bogus", "--n", "5")
    assert code == 2 and "unknown function" in err


# ---------------------------------------------------------------------------
# the real pipeline


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "partrec", "compute", "p", "--n", "5", "--format", "csv"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "5,7"


def test_usage_error_exit_code_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "partrec", "verify"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 2  # argparse usage errors share the contract
