"""Run one partrec CLI op in this fresh process and report it as one JSON line.

Usage: python3 bench/worker.py '<request json>'

The request is {"op": <id>, "argv": [...], "trace": 0|1}.  An empty argv
only imports the package, which measures set-up alone.  The op's own
stdout is captured and returned in the report, so the runner can check it.
Times are this process's own CPU seconds (`time.process_time()`), which
do not count the time another process on the same CPU takes: the runner
runs a paired op's two workers at once on one CPU.  `ready_cpu_s` is the
set-up time, from process start until `partrec.cli` is imported, and
`op_cpu_s` the op's time.
"""

import sys
import time

import partrec.cli

ready_cpu_s = time.process_time()

import contextlib  # noqa: E402  (imports after the ready mark are not set-up)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _peak_rss_kb() -> int:
    """This process's own peak resident set.  `ru_maxrss` is not: Linux
    carries it over from the parent's memory that the child is forked from."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    request = json.loads(sys.argv[1])
    reply = {"ready_cpu_s": ready_cpu_s}
    if request["argv"]:
        tracer = None
        if request["trace"]:
            import spans  # this script's directory is sys.path[0]

            tracer = spans.Tracer(request["op"])
            spans.install(tracer)
        out = io.StringIO()
        error = None
        start = time.process_time()
        with contextlib.redirect_stdout(out):
            try:
                if tracer is None:
                    code = partrec.cli.main(request["argv"])
                else:
                    code = tracer.call(spans.MAIN, partrec.cli.main, (request["argv"],), {}, {})
            except SystemExit as exc:  # argparse exits on bad arguments
                code = exc.code
            except Exception:  # a crash is reported as a failed op, not lost
                code = None
                error = traceback.format_exc()
        reply.update(
            op_cpu_s=time.process_time() - start,
            exit=code,
            error=error,
            stdout=out.getvalue(),
            spans=tracer.spans if tracer else [],
        )
    reply["peak_rss_kb"] = _peak_rss_kb()
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
