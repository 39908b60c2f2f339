"""Traced stand-in for `python -m besselcert.cli`, for cli_oneshot traced runs.

Run as `python -X importtime perfbench/cli_probe.py ARGS...`.  It imports
the CLI, installs the tracer, runs cli.main(ARGS) with stdout untouched,
then writes one marked JSON line to stderr: the time main() took and the
tracer's summary.  parse_stderr() takes that line and the importtime report
back out of the process's stderr.
"""

import json
import sys
import time

MARKER = "perfbench-probe "


def parse_stderr(stderr: str) -> tuple[dict, str]:
    """(tracer summary with import_ms and run_ms, remaining stderr) of one probe.

    import_ms is the cumulative import time of the besselcert package as
    `-X importtime` reports it.
    """
    summary = {"spans": [], "fx_calls": 0, "fx_s": 0.0, "fpow_s": 0.0,
               "refine_evals": 0, "series_cache": {"hits": 0, "misses": 0}, "run_ms": 0.0}
    import_ms = 0.0
    rest = []
    for line in stderr.splitlines():
        if line.startswith(MARKER):
            record = json.loads(line[len(MARKER):])
            summary = dict(record["summary"], run_ms=record["run_s"] * 1e3)
        elif line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "besselcert":
                import_ms = int(parts[1]) / 1e3
        else:
            rest.append(line)
    summary["import_ms"] = import_ms
    return summary, "\n".join(rest)


def main(argv: list[str]) -> int:
    import besselcert.cli as cli
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        run_s = time.perf_counter() - start
        sys.stdout.flush()
        tracer.uninstall()
        record = {"run_s": run_s, "summary": tracer.summary()}
        sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
