"""One execution of one workload, in a fresh interpreter.

Usage (run.py starts it with src on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

Drives the workload's fixed list of operations for SECONDS nominal seconds
(workloads.operations) in a closed loop (the next operation starts when the
previous one returns), then prints one JSON object: every operation with its
inputs, latency and result, the loop's wall time and peak RSS.  MODE is
"measure" (speed probes between operations, see below), "trace" (spans at
the layer boundaries, and the per-layer metrics) or "replay" (neither).
Nothing is checked here; run.py checks the results against mpmath after
this process has exited.

Speed probes.  The host is shared, and its speed drifts by tens of percent
over seconds and minutes.  In "measure" mode the loop therefore times a
fixed reference task between operations, one for every PROBE_EVERY_S of
wall time, so the probes sample the host evenly over the whole execution:
a pure-Python loop for the in-process workloads, and the start of a bare
interpreter for cli_oneshot, whose operations are process starts.  Probe
time is not part of any operation's latency.  run.py scales the latencies
by the probes' median, to the host speed at which a probe takes its
reference time.
"""

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPANS_DIR = ".bench_out"
# the loop probe: pure-Python iterations, then multiply-shifts of integers
# about 400 bits wide, like the oracle's fixed-point values at x ~ 150
PROBE_LOOPS = 12_500
PROBE_BIGINT_STEPS = 2_000
_BIG_A, _BIG_B = (1 << 400) - 12345, (1 << 390) + 6789
# wall seconds between probes, seconds of probes on either side of an
# operation that set its speed, and the reference seconds of one probe (the
# probe's typical time at the benchmark's defining commit, Python 3.11 on a
# 2-core x86 VM)
PROBE_EVERY_S = {"loop": 0.1, "spawn": 0.25}
PROBE_WINDOW_S = {"loop": 0.5, "spawn": 1.0}
PROBE_REF_S = {"loop": 0.0022, "spawn": 0.06}
MIN_PROBES = 5


def _probe_loop() -> None:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    for i in range(PROBE_BIGINT_STEPS):
        total = (_BIG_A * (_BIG_B + i)) >> 350


def probe_spawn() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)
    return time.perf_counter() - t0


class Probes:
    """Speed probes of one execution, as (start, end) wall-clock intervals.

    "loop" probes run from a SIGALRM handler every PROBE_EVERY_S, during
    operations too; "spawn" probes (interpreter starts, which a signal
    handler must not wait for) run between operations, as many as are due.
    """

    def __init__(self, kind: str):
        self.kind, self.every = kind, PROBE_EVERY_S[kind]
        self.spans = []
        self._last = time.perf_counter()

    def _on_alarm(self, signum, frame):
        self.spans.append(self._span())

    def start(self):
        if self.kind == "loop":
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        if self.kind == "loop":
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if len(self.spans) < MIN_PROBES:
            self.spans += [self._span() for _ in range(MIN_PROBES - len(self.spans))]

    def _span(self) -> tuple[float, float]:
        start = time.perf_counter()
        if self.kind == "loop":
            _probe_loop()
        else:
            probe_spawn()
        return start, time.perf_counter()

    def between(self):
        """Runs the spawn probes that have fallen due since the last ones."""
        if self.kind != "spawn":
            return
        due = int((time.perf_counter() - self._last) / self.every)
        if due:
            self.spans += [self._span() for _ in range(due)]
            self._last = time.perf_counter()

    def paused(self, t0: float, t1: float, first: int) -> float:
        """Probe time inside [t0, t1], from the spans recorded since index first."""
        return sum(e - s for s, e in self.spans[first:] if t0 <= s and e <= t1)

    def speeds(self, windows: list[tuple[float, float]]) -> list[float]:
        """Per operation: the reference probe time over the median probe time around it.

        The probes that start within PROBE_WINDOW_S of the operation count;
        where fewer than MIN_PROBES do, all probes of the execution count.
        """
        ref, pad = PROBE_REF_S[self.kind], PROBE_WINDOW_S[self.kind]
        overall = statistics.median(e - s for s, e in self.spans)
        out = []
        for t0, t1 in windows:
            near = [e - s for s, e in self.spans if t0 - pad <= s <= t1 + pad]
            out.append(ref / (statistics.median(near) if len(near) >= MIN_PROBES else overall))
        return out


def _report(r) -> list:
    return [r.name, r.lhs, r.rhs, r.margin, r.holds]


def _executors(bc) -> dict:
    """Operation kind -> callable(op) -> JSON-able result.

    Every call goes through the package's attributes, so an installed
    tracer sees it.
    """
    Order = bc.Order

    def grid(op):
        g = bc.GridSpec(tuple(op[1]), (op[2], workloads.GRID_X_HI), workloads.GRID_POINTS, "log")
        sweeps = [(name, bc.verify_approx_grid) for name in workloads.APPROX_SWEEPS]
        sweeps += [(name, bc.verify_bounds_grid) for name in workloads.BOUND_SWEEPS]
        reports = [(name, verify(name, g)) for name, verify in sweeps]
        return [[name, r.total, len(r.violations), r.max_ratio, r.skipped] for name, r in reports]

    def evaluation(r):
        return [r.value, r.abs_err_estimate]

    def best(op):
        a = bc.best_approx(Order(op[1]), op[2])
        return [a.value, a.half_width, a.method]

    def olenko(op):
        s = bc.olenko_sup(Order(op[1]), 60.0, 300)
        return [s.sup_value, s.argmax_x, s.normalized]

    return {
        "j": lambda op: evaluation(bc.bessel_j_ref(Order(op[1]), op[2])),
        "jp": lambda op: evaluation(bc.bessel_j_prime_ref(Order(op[1]), op[2])),
        "ai": lambda op: evaluation(bc.airy_ai_neg_ref(op[1])),
        "best": best,
        "envelope": lambda op: _report(bc.bound_envelope(Order(op[1]), op[2])),
        "watson": lambda op: _report(bc.bound_watson(Order(op[1]), op[2])),
        "lemma": lambda op: [_report(r) for r in bc.lemma_integral_check(op[1])],
        "grid": grid,
        "airy_zero": lambda op: bc.refine_airy_zero(op[1]),
        "bessel_zero": lambda op: bc.refine_bessel_zero(Order(op[1]), op[2]),
        "aem": lambda op: [_report(r) for r in bc.airy_envelope_maxima(op[1])],
        "leftmost": lambda op: _report(bc.leftmost_max_check(Order(op[1]))),
        "olenko": olenko,
    }


def _cli_executor(traced: bool, summaries: list):
    """Runs each command in a fresh CLI process; traced ones go through cli_probe.py."""
    import cli_probe

    def run(op):
        if traced:
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_probe.py")]
        else:
            cmd = [sys.executable, "-m", "besselcert.cli"]
        proc = subprocess.run(cmd + list(op[1]), capture_output=True)
        stderr = proc.stderr.decode("utf-8", "replace")
        if traced:
            probe, stderr = cli_probe.parse_stderr(stderr)
            summaries.append(probe)
        return [proc.returncode, proc.stdout.decode("utf-8", "replace"),
                stderr.rstrip("\n")[-400:]]

    return run


def _loop(workload: str, seed: int, seconds: float, executors: dict, tracer,
          probes: Probes | None) -> tuple[list, float, list]:
    ops, windows = [], []
    clock = time.perf_counter
    start = clock()
    for op in workloads.operations(workload, seed, seconds):
        if tracer is not None:
            tracer.op = len(ops)
        first = len(probes.spans) if probes else 0
        t0 = clock()
        try:
            result, error = executors[op[0]](op), None
        except Exception as e:  # recorded; the checker counts it as a failure
            result, error = None, [type(e).__name__, str(e)]
        t1 = clock()
        latency = t1 - t0
        if probes:
            latency -= probes.paused(t0, t1, first)
            probes.between()
        ops.append([list(op), latency, result, error])
        windows.append((t0, t1))
    return ops, clock() - start, windows


def _write_spans(workload: str, seed: int, summaries: list) -> str:
    """Every span, one JSON array per line after a header line, under .bench_out/."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans_{workload}_seed{seed}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(["process", "op", "id", "parent", "name", "start", "end",
                             "fx_calls", "fx_s", "error", "size"]) + "\n")
        for process, summary in enumerate(summaries):
            for span in summary["spans"]:
                fh.write(json.dumps([process] + list(span)) + "\n")
    return path


def run(workload: str, seed: int, seconds: float, mode: str) -> dict:
    import tracer as tracing
    traced = mode == "trace"
    summaries = []
    tracer = None
    if workload == "cli_oneshot":
        executors = {"cli": _cli_executor(traced, summaries)}
    else:
        import besselcert
        executors = _executors(besselcert)
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
    probes = None
    if mode == "measure":
        probes = Probes("spawn" if workload == "cli_oneshot" else "loop")
        probes.start()
    try:
        ops, wall, windows = _loop(workload, seed, seconds, executors, tracer, probes)
    finally:
        if probes:
            probes.stop()
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    out = {"ops": ops, "wall_s": wall,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if probes:
        out["speeds"] = probes.speeds(windows)
        out["probes"] = len(probes.spans)
    if traced:
        if tracer is not None:
            tracer.uninstall()
            summaries.append(tracer.summary())
        out["layers"] = tracing.metrics(summaries)
        out["spans_file"] = _write_spans(workload, seed, summaries)
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv
    if mode not in ("measure", "trace", "replay"):
        raise SystemExit(f"unknown mode {mode!r}")
    out = run(workload, int(seed), float(seconds), mode)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
