"""partrec benchmark: cold CLI ops, each in a fresh worker process.

Usage (from the repository root):

    python3 bench/run.py --workload verify|check \
        --seed N --seconds S --trace 0|1

A CLI user pays interpreter start, `import partrec`, memo growth and
series expansion on every invocation, so every op runs in its own worker
(`bench/worker.py`), launched one at a time: no op inherits warm state from
an earlier one.  The op is timed inside the worker around
`partrec.cli.main(argv)`.  Every op's output is checked (see README.md).

The host's speed drifts by up to 2x over minutes, so --trace 0 pairs
every op with the same op on a frozen copy of the program
(`bench/baseline/`), run at the same time on the same CPU, and reports
the ratio of the two workers' CPU times scaled by the baseline's time on
a quiet reference host.  Rounds run while the next one is predicted to
end within --seconds (at least one round).  --trace 1 runs one untraced
and one traced round on the checkout alone and reports per-layer metrics
from the traced round's spans, plus the tracing overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the host facts.  Everything,
spans included, is also written to bench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"  # frozen copy of src/partrec: the yardstick for host speed
PAPER = ROOT / "identities" / "paper.qid"
OUT = BENCH / "out"
EXPECTED = json.loads((BENCH / "expected.json").read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units

THEOREMS = EXPECTED["verify"]["theorems"]
VERIFY_N = EXPECTED["verify"]["n"]
CHECK_ORDER = 1000
CHECK_PARTS = 4
# Median wall seconds of the baseline, run alone, on the reference host in
# a quiet period; a paired ratio times this is reported as the metric.
NOMINAL_S = EXPECTED["nominal_s"]

# Set-up-only workers before every round and after the last, besides every
# op's own set-up; spread over the run so they sample more than one moment
# of a host whose speed drifts.
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # no worker may run past this point of the run


class OpFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Host facts


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# Workers


def _pin_cpu() -> int | None:
    """The CPU that every worker is pinned to: the last one this process may
    use (the runner itself stays unpinned).  None where affinity cannot be
    set; then the pair runs on whatever CPUs the scheduler picks."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)  # no change: only tests that it is allowed
    except (AttributeError, OSError):
        return None
    return max(cpus)


class Runner:
    """Launches workers and collects what they report.

    In a paired round, every op runs twice at the same time: once on the
    checkout's sources and once on the frozen baseline, both workers pinned
    to the same CPU, so that the scheduler interleaves them in slices of a
    few milliseconds and both see the same host speed.  Each worker's time
    is its own CPU time, which does not count the other's slices.
    """

    def __init__(self):
        self.start = time.perf_counter()
        self.next_op = 1
        self.setups: dict[bool, list[float]] = {False: [], True: []}  # keyed by baseline
        self.peak_rss_kb: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []
        self.cpu = _pin_cpu()
        # Workers import the checkout's sources (or the baseline), with
        # bytecode caching on, as for an installed CLI, whatever the
        # caller's environment says.
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.envs = {False: dict(env, PYTHONPATH=str(SRC)), True: dict(env, PYTHONPATH=str(BASELINE))}

    def _pin(self) -> None:  # runs in the forked child, before exec
        os.sched_setaffinity(0, {self.cpu})

    def _start(self, argv: list[str], trace: bool, baseline: bool) -> subprocess.Popen:
        op_id = self.next_op
        self.next_op += 1
        request = json.dumps({"op": op_id, "argv": argv, "trace": int(trace)})
        return subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), request],
            cwd=ROOT, env=self.envs[baseline], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=None if self.cpu is None else self._pin,
        )

    def launch(self, argv: list[str], trace: bool = False, sides=(False,)) -> dict[bool, dict]:
        """Run one worker per side (False: checkout, True: baseline) at the
        same time and return their replies by side.  Every worker has ended
        when this returns, whatever happens."""
        procs = {}
        if self.next_op % 2:  # alternate which side of a pair starts first
            sides = sides[::-1]
        try:
            for baseline in sides:
                procs[baseline] = self._start(argv, trace, baseline)
            replies = {}
            for baseline, proc in procs.items():
                timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
                try:
                    out, err = proc.communicate(timeout=timeout)
                except subprocess.TimeoutExpired:
                    raise OpFailed(f"{argv}: timed out after {timeout:.0f} s") from None
                try:
                    if proc.returncode != 0:
                        raise ValueError(f"exit {proc.returncode}")
                    replies[baseline] = json.loads(out.splitlines()[-1])
                except (ValueError, IndexError) as exc:
                    raise OpFailed(f"{argv}: worker failed ({exc}): {err.strip()[-2000:]}") from None
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()
        for baseline, reply in replies.items():
            self.setups[baseline].append(reply["ready_cpu_s"])
        return replies

    def op(self, argv: list[str], check, trace: bool = False, paired: bool = True) -> tuple[float, float]:
        """Run one op on the checkout (and on the frozen baseline at the same
        time, if paired) and check the outputs; returns the CPU seconds of
        each (0 for the baseline if unpaired).  A failure of the checkout
        is recorded in `failures`; a failure of the baseline raises
        OpFailed, because then the host cannot be measured against it."""
        self.attempted += 1
        try:
            replies = self.launch(argv, trace, (False, True) if paired else (False,))
        except OpFailed as exc:
            self.failures.append(str(exc))
            return 0.0, 0.0
        reply = replies[False]
        self.peak_rss_kb.append(reply["peak_rss_kb"])
        self.spans.extend(reply["spans"])
        try:
            _check_reply(reply, check)
        except OpFailed as exc:
            self.failures.append(f"{argv}: {exc}")
        if not paired:
            return reply["op_cpu_s"], 0.0
        try:
            _check_reply(replies[True], check)
        except OpFailed as exc:
            raise OpFailed(f"baseline {argv}: {exc}") from None
        return reply["op_cpu_s"], replies[True]["op_cpu_s"]

    def probe_setups(self, paired: bool) -> None:
        for _ in range(SETUP_PROBES):
            self.launch([], sides=(False, True) if paired else (False,))

    def round(self, ops, trace: bool = False, paired: bool = True) -> tuple[float, float]:
        """Set-up probes, then one round of (argv, check) ops; returns the
        summed op times of the checkout and of the baseline (0 if unpaired)."""
        self.probe_setups(paired)
        times = [0.0, 0.0]
        for argv, check in ops:
            for side, t in enumerate(self.op(argv, check, trace, paired)):
                times[side] += t
        return times[0], times[1]

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


# ---------------------------------------------------------------------------
# Output checks


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailed(what)


def _check_reply(reply: dict, check) -> None:
    _expect(reply["error"] is None, f"crashed:\n{reply['error']}")
    try:
        check(reply["exit"], reply["stdout"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise OpFailed(f"unreadable output: {exc!r}") from None


def verify_check(code, stdout: str) -> None:
    _expect(code == 0, f"verify all: exit {code}")
    reports = json.loads(stdout)
    _expect([r.get("theorem") for r in reports] == THEOREMS, "verify all: wrong suites or order")
    keys = EXPECTED["verify"]["keys"]
    for r in reports:
        _expect(sorted(r) == keys, f"verify {r['theorem']}: key set {sorted(r)}")
        _expect(r["status"] == "pass" and r["first_failure"] is None and r["n_max"] == VERIFY_N,
                f"verify {r['theorem']}: {r}")


_SUMMARY = re.compile(
    r"(pass|fail) \(n <= (\d+), \d+ ms\)(?:; first failure at n=(\d+), residual=(-?\d+))?(?: \[.*\])?"
)


def corpus_check(expected: list[corpus.Expected]):
    def check(code, stdout: str) -> None:
        want_code = 0 if all(e.passed for e in expected) else 1
        _expect(code == want_code, f"check: exit {code}, expected {want_code}")
        lines = stdout.splitlines()
        _expect(len(lines) == len(expected), f"check: {len(lines)} reports for {len(expected)} statements")
        for line, e in zip(lines, expected):
            prefix = e.text + ": "
            m = _SUMMARY.fullmatch(line[len(prefix):]) if line.startswith(prefix) else None
            _expect(m is not None, f"check: unexpected report {line[:300]!r} for {e.text!r}")
            failure = None if m.group(3) is None else (int(m.group(3)), int(m.group(4)))
            _expect((m.group(1) == "pass") == e.passed and int(m.group(2)) == CHECK_ORDER
                    and failure == e.failure, f"check: {line[:300]!r}, expected {e}")
    return check


# ---------------------------------------------------------------------------
# Workloads: each returns a function giving the ops of round i.


def verify_rounds(_seed: int):
    argv = ["verify", "all", "--n", str(VERIFY_N), "--format", "json", "--threads", "1"]
    return lambda _i: [(argv, verify_check)]


def check_rounds(seed: int):
    """The seeded corpus, dealt into CHECK_PARTS files checked by one op
    each, so that each op is paired with the baseline closely in time."""
    expected = corpus.build(PAPER.read_text(encoding="utf-8"), seed, CHECK_ORDER)
    ops = []
    for k in range(CHECK_PARTS):
        part = expected[k::CHECK_PARTS]
        path = OUT / f"corpus-seed{seed}-part{k}.qid"
        path.write_text("".join(e.text + "\n" for e in part), encoding="utf-8")
        argv = ["check", str(path.relative_to(ROOT)), "--order", str(CHECK_ORDER)]
        ops.append((argv, corpus_check(part)))
    return lambda _i: ops


WORKLOADS = {"verify": verify_rounds, "check": check_rounds}


# ---------------------------------------------------------------------------


def measure(runner: Runner, ops_of, args) -> tuple[list[tuple[float, float]], dict[str, float]]:
    """Run the rounds; returns each round's (checkout, baseline) op times
    and the metrics to report."""
    if args.trace:
        # Traced and untraced rounds run on the checkout only.  The seed's
        # parity picks which goes first, so that a drift of host speed
        # within the run does not bias the overhead one way.
        order = (False, True) if args.seed % 2 == 0 else (True, False)
        times = {traced: runner.round(ops_of(i), trace=traced, paired=False)[0]
                 for i, traced in enumerate(order)}
        metrics = spans.layer_metrics(runner.spans, THEOREMS)
        metrics["trace.overhead_s"] = times[True] - times[False]
        return [(times[t], 0.0) for t in order], metrics
    rounds: list[tuple[float, float]] = []
    measure_start = time.perf_counter()
    while not rounds or (
        time.perf_counter() - measure_start + statistics.median(map(sum, rounds)) <= args.seconds
        and runner.elapsed() < RUN_LIMIT_S / 2
        and not runner.failures
    ):
        rounds.append(runner.round(ops_of(len(rounds))))
    runner.probe_setups(paired=True)
    # Every launch was paired, so the two lists pair up.
    setup_ratio = statistics.median(c / b for c, b in zip(runner.setups[False], runner.setups[True]))
    return rounds, {
        # A round with a failed op has no time to compare; then the run is
        # not correct anyway.
        "op_s": NOMINAL_S[args.workload] * statistics.median([c / b for c, b in rounds if c and b] or [0.0]),
        "setup_s": NOMINAL_S["setup"] * setup_ratio,
        "peak_rss_mb": max(runner.peak_rss_kb, default=0) / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "partrec" / "__init__.py").is_file() or not PAPER.is_file():
        print(f"partrec sources not found under {ROOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    steal_start = _steal_ticks()
    ops_of = WORKLOADS[args.workload](args.seed)
    runner = Runner()
    try:
        runner.launch([], sides=(False, True))  # untimed: compile bytecode, warm the file cache
        for setups in runner.setups.values():
            setups.clear()
        rounds, metrics = measure(runner, ops_of, args)
    except OpFailed as exc:  # a set-up probe or the baseline failed: nothing to measure against
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    steal_end = _steal_ticks()

    host = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "steal_s": None if steal_start is None or steal_end is None
        else (steal_end - steal_start) / os.sysconf("SC_CLK_TCK"),
    }
    failed = len(runner.failures)
    for message in runner.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"{args.workload}: (checkout, baseline) CPU seconds per round "
          f"{[(round(c, 3), round(b, 3)) for c, b in rounds]}, fail_ratio {failed}/{runner.attempted}",
          file=sys.stderr)
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} not both declared and measured")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "rounds_s": rounds,
              "setups_s": {"checkout": runner.setups[False], "baseline": runner.setups[True]},
              "failures": runner.failures, "result": result, "spans": runner.spans}
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
