"""CLI contract tests: output formats and the 0/1/2 exit-code contract."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partrec import cli, functions
from partrec.cli import VERIFY_MAX_N, main
from partrec.dsl import MAX_ORDER
from partrec.functions import PartitionFunctionId
from partrec.oracle import ORACLE_MAX_N
from partrec.recurrences import TheoremId
from partrec.report import Failure, VerificationReport, format_int

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


def test_verify_csv_formats_a_huge_residual(capsys, monkeypatch):
    # 10^5000 has 5001 digits, past CPython's limit on converting an int to text
    report = VerificationReport("T1", 5, False, Failure(3, 10**5000), 0)
    monkeypatch.setattr(cli, "verify", lambda tid, n: report)
    code, out, _ = run_cli(capsys, "verify", "T1", "--n", "5", "--format", "csv")
    assert code == 1
    assert out.splitlines()[1] == "T1,5,fail,3," + "1" + "0" * 19 + "...(5001 digits),0"


def test_verify_json_formats_a_huge_residual(capsys, monkeypatch):
    report = VerificationReport("T1", 5, False, Failure(3, 10**5000), 0)
    monkeypatch.setattr(cli, "verify", lambda tid, n: report)
    code, out, _ = run_cli(capsys, "verify", "T1", "--n", "5", "--format", "json")
    assert code == 1
    assert json.loads(out)["first_failure"] == {"n": 3, "residual": format_int(10**5000)}


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


def test_check_of_many_forms_keeps_a_bounded_store(tmp_path, capsys):
    # 200 distinct eta quotients eta_k^e / eta_1, every seventh statement false at q^0;
    # the `+ 0` keeps the others off the exponent-sequence decision, so all 200 reach the store
    lines = []
    for i in range(200):
        k, e = 1 + i % 25, 1 + i // 25
        bump = " + 1" if i % 7 == 0 else " + 0"
        lines.append(f"P(q^{k}; q^{k})^{e} * p == P(q^{k}; q^{k})^{e} / P(q^1; q^1){bump} within 40")
    path = tmp_path / "many.qid"
    path.write_text("\n".join(lines) + "\n")
    functions._cache_clear()
    for _ in range(2):  # the second run expands again the keys the first one dropped
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        reports = out.splitlines()
        assert len(reports) == 200
        for i, (line, report) in enumerate(zip(lines, reports)):
            outcome = "fail (n <= 40, " if i % 7 == 0 else "pass (n <= 40, "
            assert report.startswith(f"{line}: {outcome}")
            assert i % 7 != 0 or "first failure at n=0, residual=-1 " in report
        derived = [key for key in functions._cache if key not in functions.KEYS.values()]
        assert len(derived) <= functions.MAX_DERIVED_KEYS


def test_check_grows_a_named_table_at_each_order_it_outgrows(tmp_path, capsys, monkeypatch):
    # po_bar is read at q^1000, then inside an extract that does not dissect
    # (by 3) at q^3001: the store expands it from 1 at each, as 3001 is past
    # twice the 1000 it holds.  Its dissection by 2 is decided, a product on
    # both sides, and reads no table.
    path = tmp_path / "three.qid"
    path.write_text(
        "lebesgue(45) == po_bar within 5\n"
        "extract(po_bar, 2, 1) == 2 * op * theta(TWO_TRI4) within 5\n"
        "extract(po_bar, 3, 1) + 0 == extract(po_bar, 3, 1) within 5\n"
    )
    expand = functions.eta_quotient
    expanded = []

    def recording(exponents, order):
        expanded.append((functions.eta_key(exponents), order))
        return expand(exponents, order)

    monkeypatch.setattr(functions, "eta_quotient", recording)
    functions._cache_clear()
    code, out, _ = run_cli(capsys, "check", str(path), "--order", "1000")
    assert code == 0, out
    po_bar = functions.KEYS[PartitionFunctionId.PO_ODD]
    assert expanded == [(po_bar, 1000), (po_bar, 3001)]


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


def test_check_undecodable_file(tmp_path, capsys):
    path = tmp_path / "latin1.qid"
    path.write_bytes(b"p == p within 5\n\xff\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert f"cannot read {path}: 'utf-8' codec can't decode byte 0xff" in err


def test_check_exponent_over_budget(tmp_path, capsys):
    path = tmp_path / "power.qid"
    path.write_text(f"P(q^1; q^1)^{MAX_ORDER + 1} == p within 5\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert f"line 1, col 13: exponent {MAX_ORDER + 1} exceeds the engine maximum {MAX_ORDER}" in err


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("p == p within \u00b2", "line 1, col 15", "unexpected character"),
        ("p == p within 1\u0663", "line 1, col 16", "unexpected character"),
        ("p == " + "9" * 4301 + " within 5", "line 1, col 6", "integer literal longer than"),
        ("(" * 3000 + "p" + ")" * 3000 + " == p within 5", "line 1, col 101", "nested deeper than"),
        ("p" + "*p" * 3000 + " == p within 5", "line 1, col 200", "nested deeper than"),
    ],
    ids=["superscript-digit", "arabic-indic-digit", "long-literal", "parentheses", "chain"],
)
def test_check_hostile_input_exits_2(tmp_path, capsys, text, where, message):
    path = tmp_path / "hostile.qid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}: {where}: " in err and message in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "text",
    [
        "P(q^1; q^4999) * P(q^1; q^4998) * P(q^1; q^4997) == 1 within 5000",
        "P(-q^1; q^1" + "0" * 3999 + ") * P(q^1; q^1) == P(q^1; q^1) within 5000",
    ],
    ids=["lcm-past-the-order", "4000-digit-b"],
)
def test_check_period_is_bounded_before_allocating(tmp_path, capsys, text):
    path = tmp_path / "period.qid"
    path.write_text(text + "\n")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", str(path))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert ": fail (n <= 5000, " in out and "first failure at n=1," in out
    assert err == ""
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    assert peak < 20 * 2**20, f"peak {peak} bytes"


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
# any argument vector

# check's file argument is one of these kinds, stood in for by "@kind"
# until the test swaps in a real path
_QID_TEXTS = {
    "valid": "po_bar == P(-q^1; q^2) / P(q^1; q^2) within 20\n",
    "failing": "po_bar == pd within 5\n",
    "eval-error": "1 / (2 * P(q^1; q^1)) == p within 20\n",
    "unparsable": "P(q^1; q^2 ==\n",
    "empty": "# no statements\n",
}


@pytest.fixture(scope="module")
def qid_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("qid")
    paths = {"@directory": str(root), "@missing": str(root / "missing.qid")}
    for kind, text in _QID_TEXTS.items():
        paths[f"@{kind}"] = str(root / f"{kind}.qid")
        (root / f"{kind}.qid").write_text(text, encoding="utf-8")
    paths["@non-utf8"] = str(root / "latin1.qid")
    (root / "latin1.qid").write_bytes(b"p == p within 5\n\xff\n")
    return paths


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _int_text(small, extremes):
    """Small values, the extremes around a bound, and text that is no int."""
    return st.one_of(small.map(str), st.sampled_from([*map(str, extremes), "", "x", "1.5", "1e3"]))


_function = st.sampled_from([f.value for f in PartitionFunctionId] + ["P", "bogus", ""]).map(lambda f: [f])
_format = _option("--format", st.sampled_from(["plain", "csv", "json", "xml"]))
_threads = _option("--threads", _int_text(st.integers(0, 4), [-1]))
_theorem = st.sampled_from([t.value for t in TheoremId] + ["all", "ALL", "t1", "T99", ""]).map(lambda t: [t])
_file = st.sampled_from([f"@{kind}" for kind in [*_QID_TEXTS, "directory", "missing", "non-utf8"]])
_argv = st.one_of(
    st.tuples(
        st.just(["compute"]),
        _function,
        _option("--n", _int_text(st.integers(0, 40), [-1, MAX_ORDER, MAX_ORDER + 1])),
        _format,
    ),
    # verify all at VERIFY_MAX_N takes seconds: only the first n past it is drawn
    st.tuples(
        st.just(["verify"]),
        _theorem,
        _option("--n", _int_text(st.integers(0, 30), [-1, VERIFY_MAX_N + 1])),
        _format,
        _threads,
    ),
    st.tuples(
        st.just(["check"]),
        _file.map(lambda f: [f]),
        _option("--order", _int_text(st.integers(1, 40), [-1, 0, MAX_ORDER + 1])),
        _threads,
    ),
    # enumeration grows fast with n (op to 60 takes tens of seconds): small n only
    st.tuples(
        st.just(["oracle-compare"]),
        _function,
        _option("--n", _int_text(st.integers(0, 20), [-1, ORACLE_MAX_N + 1])),
    ),
    st.sampled_from([[], ["bogus"], ["--help"], ["verify"], ["check"], ["compute", "--n", "5"]]).map(
        lambda argv: (argv,)
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=150, deadline=None)
@given(argv=_argv)
def test_any_argument_vector_exits_0_1_or_2(qid_paths, argv):
    argv = [qid_paths.get(arg, arg) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends usage errors and --help this way
            code = exc.code
    assert code in (0, 1, 2)


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


# A shell's pipe: stdout block-buffered, whatever this run's environment sets
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("fmt, first", [("plain", b"0\t1\n"), ("csv", b"n,value\n")])
def test_compute_into_a_closed_pipe_exits_2_quietly(fmt, first):
    # `partrec compute ... | head -n 1`: po_bar to q^5000 is far more than a
    # pipe holds, so the writer is still writing when the reader closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "partrec", "compute", "po_bar", "--n", "5000", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=REPO_ROOT,
        env=_BUFFERED,
    )
    try:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2  # the contract's I/O-error code
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_compute_into_a_pipe_closed_before_it_starts_exits_2_quietly(fmt):
    # the whole table fits the stdout buffer, so the write fails only when
    # it is flushed; the interpreter's own last flush must not fail again
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "partrec", "compute", "p", "--n", "20", "--format", fmt],
            stdout=write,
            stderr=subprocess.PIPE,
            cwd=REPO_ROOT,
            env=_BUFFERED,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == b""


# Prints which of the modules a CLI run should not load are loaded: after the
# import, after a check, and after importing the oracle's names from partrec.
LAZY_IMPORTS = """
import sys
import partrec.cli
lazy = ("fractions", "dataclasses", "inspect", "csv", "json", "partrec.oracle")
loaded = lambda: [m for m in lazy if m in sys.modules]
after_import = loaded()
code = partrec.cli.main(["check", "identities/paper.qid"])
after_check = loaded()
from partrec import ConstraintSpec, constraint_for, oracle_count, oracle_table
print(after_import, code, after_check, loaded(), oracle_count(ConstraintSpec(), 5))
"""


def test_cli_import_leaves_out_fractions(capsys):
    # fractions would also pull in decimal, dataclasses pulls in inspect, and
    # csv and the oracle serve only csv output and oracle-compare: start-up cost
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORTS],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0 [] ['partrec.oracle'] 7"
    # the oracle's bound still reaches the help text
    with pytest.raises(SystemExit):
        main(["oracle-compare", "--help"])
    assert f"at most {ORACLE_MAX_N}" in capsys.readouterr().out
    assert ORACLE_MAX_N == 60


# Installs the benchmark's tracer (bench/spans.py), runs a verify, a check and
# a compute, and prints the names of the spans recorded.  install() rebinds names in
# partrec's modules, so dropping or renaming one of them fails here.
TRACED_RUN = """
import json, sys
import spans
from partrec import cli
tracer = spans.Tracer(0)
spans.install(tracer)
codes = [cli.main(argv) for argv in (["verify", "T1", "--n", "20"], ["check", sys.argv[1]], ["compute", "p", "--n", "5"])]
print(json.dumps({"codes": codes, "names": sorted({s["name"] for s in tracer.spans})}))
"""


def test_benchmark_tracer_still_installs(tmp_path):
    path = tmp_path / "one.qid"
    # the first statement is decided on exponent sequences; the second reads po_bar's table
    path.write_text("po_bar == P(-q^1; q^2) / P(q^1; q^2) within 20\nlebesgue(6) == po_bar within 20\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0, 0, 0]
    # verify and check read the store by eta key; compute reads it by name (`gf_series`)
    assert {"functions.gf_series", "recurrences.verify", "dsl.check"} <= set(doc["names"])


def test_check_oversized_coefficient_fails_without_traceback(tmp_path):
    # 999^5000 has 14998 digits, past CPython's limit on converting an int to text
    path = tmp_path / "huge.qid"
    path.write_text("999^5000 == 0 within 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "partrec", "check", str(path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    [line] = proc.stdout.splitlines()
    assert line.startswith("999^5000 == 0 within 1: fail")
    # 999^5000 = 6.7211119598656178118... * 10^14997
    head = "67211119598656178118...(14998 digits)"
    assert f"residual={head} [q^0: lhs={head}, rhs=0]" in line
    assert "Traceback" not in proc.stderr


def test_check_scalar_power_past_the_bound_fails(tmp_path, capsys):
    # (7^5000)^5000 would have 70 million bits: one fail line, no traceback
    path = tmp_path / "power.qid"
    path.write_text("(7^5000)^5000 == 0 within 1\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert out == "(7^5000)^5000 == 0 within 1: fail (n <= 1, 0 ms) [scalar power past 65536 bits (in: (7^5000)^5000)]\n"
    assert err == ""


@pytest.mark.parametrize("k", [*range(4295, 4311), 50000])
def test_format_int_counts_digits_exactly(k):
    limit = sys.get_int_max_str_digits()
    for value in (10**k - 1, 10**k, -(10**k - 1), -(10**k)):
        sys.set_int_max_str_digits(0)
        try:
            text = str(abs(value))
        finally:
            sys.set_int_max_str_digits(limit)
        sign = "-" if value < 0 else ""
        expected = f"{sign}{text[:20]}...({len(text)} digits)" if 0 < limit < len(text) else sign + text
        assert format_int(value) == expected


def test_format_int_past_the_digit_limit():
    assert format_int(10**4299) == str(10**4299)  # 4300 digits: printed in full
    assert format_int(-(10**4300)) == "-" + "1" + "0" * 19 + "...(4301 digits)"
    assert format_int(10**5000 - 1) == "9" * 20 + "...(5000 digits)"
