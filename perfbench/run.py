"""besselcert benchmark: four workloads, every result checked against mpmath.

Run from the repository root:

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Each run starts fresh interpreters, so the package's caches start empty:
REPS workers (worker.py) that each drive the same fixed list of operations
in a closed loop from a single client, and around them several that time
set-up (interpreter start, `import besselcert`, first oracle call).  Every
latency is scaled to a reference host speed by speed probes timed next to
it (worker.py), and every operation keeps the median of its scaled
latencies.
After the workers exit, every result is checked against mpmath (check.py).
--trace 1 instead runs the workload once with spans at the layer boundaries
(tracer.py), replays the same operations untraced to measure the tracing
overhead, and reports only per-layer metrics.

The metrics, their units and the workloads are described in README.md and
declared in BENCHMARK.json at the repository root.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import collections
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads
import worker

HERE = os.path.dirname(os.path.abspath(__file__))

PACKAGE_DIR = os.path.join("src", "besselcert")
SETUP_RUNS = 2  # per slot: before, between and after the executions
REPS = 3
SETUP_CODE = ("import besselcert\n"
              "besselcert.bessel_j_ref(besselcert.Order(2.5), 10.0)\n")
# every process a run starts must have ended within this many seconds
RUN_BUDGET_S = 170

END_TO_END = {  # name -> unit; see README.md for what each means per workload
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "fixedpoint.calls": "count",
    "fixedpoint.self_s": "s",
    "fixedpoint.fpow_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.j_p50_us": "us",
    "oracle.airy_p50_us": "us",
    "oracle.refine_root.roots": "count",
    "oracle.refine_root.evals_per_root": "ratio",
    "oracle.quad_s": "s",
    "oracle.refused": "count",
    "oracle.wrong": "count",
    "oracle.series_lookups": "count",
    "oracle.series_cache_hit_share": "ratio",
    "approx.calls": "count",
    "approx.self_s": "s",
    "approx.best_approx_p50_us": "us",
    "approx.time_s": "s",
    "approx.oracle_share": "ratio",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "bounds.reports": "count",
    "bounds.oracle_calls_per_report": "ratio",
    "zeros.calls": "count",
    "zeros.self_s": "s",
    "scan.calls": "count",
    "scan.checks": "count",
    "scan.self_s": "s",
    "scan.oracle_calls_per_check": "ratio",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "trace.overhead": "ratio",
    "trace.untraced_s": "s",
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S}s budget")
    return left


def setup_times(deadline: float) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and call the oracle once.

    Each is followed by a speed probe, the start of a bare interpreter.
    """
    times, bare = [], []
    for _ in range(SETUP_RUNS):
        _remaining(deadline)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                              capture_output=True, timeout=_remaining(deadline))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: " + proc.stderr.decode()[-400:])
        bare.append(worker.probe_spawn())
    return times, bare


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           repr(float(seconds)), mode]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the run's {RUN_BUDGET_S}s budget")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         + proc.stderr.decode()[-800:])
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _work_done(workload: str, ops: list) -> int:
    """Units behind throughput_per_s: checks for grid_certify, operations elsewhere."""
    if workload != "grid_certify":
        return len(ops)
    done = 0
    for op, latency, result, error in ops:
        if error is not None:
            continue
        done += len(result) if op[0] == "lemma" else sum(sweep[1] for sweep in result)
    return done


def end_to_end(workload: str, run: dict, outcome: dict) -> dict:
    ops = run["ops"]
    lat_ms = [op[1] * 1e3 for op in ops]
    return {
        "setup_s": run["setup_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": _percentile(lat_ms, 0.9),
        "throughput_per_s": _work_done(workload, ops) / sum(op[1] for op in ops),
        "ok_share": (outcome["attempted"] - outcome["failed"]) / outcome["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run: dict, replay: dict, outcome: dict) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({k: v for k, v in run["layers"].items() if k in PER_LAYER})
    values["oracle.wrong"] = outcome["oracle_wrong"]
    values["trace.untraced_s"] = replay["wall_s"]
    values["trace.overhead"] = run["wall_s"] / replay["wall_s"]
    return values


def headline_lines(workload: str, run: dict, metrics: dict, outcome: dict) -> list[str]:
    """The workload's headline numbers under their own names."""
    lat_us = [op[1] * 1e6 for op in run["ops"]]
    share = f"{outcome['failed'] / outcome['attempted']:.6f}"
    raw_ms = [t * 1e3 for t in run["raw_latency"]]
    lines = [f"failed_share {share} (base: {outcome['failed']} failed of "
             f"{outcome['attempted']} attempted operations)",
             "host speed against the probes' reference: "
             + ", ".join(f"{v:.3f}" for v in run["execution_speeds"]) + " (executions), "
             f"{run['setup_speed']:.3f} (set-up); unscaled: setup_s {run['raw_setup_s']:.6g} s, "
             f"op_p50_ms {statistics.median(raw_ms):.6g} ms, "
             f"op_p90_ms {_percentile(raw_ms, 0.9):.6g} ms, "
             f"throughput_per_s {_work_done(workload, run['ops']) / sum(run['raw_latency']):.6g} 1/s"]
    if workload == "point_queries":
        lines += [f"query_p50_us {statistics.median(lat_us):.1f} us (n={len(lat_us)})",
                  f"query_p99_us {_percentile(lat_us, 0.99):.1f} us (n={len(lat_us)})",
                  f"queries_per_s {metrics['throughput_per_s']:.2f} 1/s"]
    elif workload == "grid_certify":
        lines.append(f"certify_checks_per_s {metrics['throughput_per_s']:.2f} 1/s "
                     f"(base: {_work_done(workload, run['ops'])} checks)")
    elif workload == "search_claims":
        lines.append(f"search_s {sum(op[1] for op in run['ops']):.4f} s "
                     f"(base: {len(run['ops'])} claims)")
    else:
        lines += [f"cli_p50_ms {metrics['op_p50_ms']:.2f} ms (n={len(lat_us)})",
                  f"cli_p90_ms {metrics['op_p90_ms']:.2f} ms (n={len(lat_us)})"]
    return lines


def replays_differ(runs: list[dict]) -> set[int]:
    """Indices of operations whose result or error differs between executions.

    Compared as JSON text, so a NaN equals a NaN.
    """
    def outcome(run, i):
        return json.dumps(run["ops"][i][2:])
    return {i for i in range(len(runs[0]["ops"]))
            if any(outcome(r, i) != outcome(runs[0], i) for r in runs[1:])}


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """REPS executions of one operation list, each in a fresh worker, and setup_s.

    Each execution runs the list sized for seconds/REPS.  Its latencies are
    scaled by its speed probes (worker.py) to the reference host speed, and
    every operation keeps the median of its REPS scaled latencies: the
    scaling leaves errors on both sides, which a median evens out better
    than a minimum.  Set-up is timed
    before, between and after the executions, so its median samples the
    whole run rather than one moment of it, and is scaled by the bare
    interpreter starts timed next to it.
    """
    setup, bare = setup_times(deadline)
    runs = []
    for _ in range(REPS):
        runs.append(run_worker(workload, seed, seconds / REPS, "measure", deadline))
        more_setup, more_bare = setup_times(deadline)
        setup, bare = setup + more_setup, bare + more_bare
    first = runs[0]
    first["raw_latency"] = [statistics.median(r["ops"][i][1] for r in runs)
                            for i in range(len(first["ops"]))]
    for i, op in enumerate(first["ops"]):
        op[1] = statistics.median(r["ops"][i][1] * r["speeds"][i] for r in runs)
    first["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    first["execution_speeds"] = [statistics.median(r["speeds"]) for r in runs]
    first["differ"] = replays_differ(runs)
    first["raw_setup_s"] = statistics.median(setup)
    first["setup_speed"] = worker.PROBE_REF_S["spawn"] / statistics.median(bare)
    first["setup_s"] = first["raw_setup_s"] * first["setup_speed"]
    return first


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import check  # imports mpmath, whose absence main() reports first
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        run = run_worker(workload, seed, seconds / REPS, "trace", deadline)
        replay = run_worker(workload, seed, seconds / REPS, "replay", deadline)
        differ = replays_differ([run, replay])
        table = PER_LAYER
    else:
        run = measure(workload, seed, seconds, deadline)
        differ = run["differ"]
        table = END_TO_END
    verdicts = check.judge(run["ops"], differ)
    outcome = check.summarize(run["ops"], verdicts)
    if trace:
        metrics = per_layer(run, replay, outcome)
    else:
        metrics = end_to_end(workload, run, outcome)
    print(f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    for name, unit in table.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not trace:
        for line in headline_lines(workload, run, metrics, outcome):
            print(line)
    else:
        print(f"spans written to {run['spans_file']}")
    for i in outcome["unexpected"][:10]:
        print(f"UNEXPECTED FAILURE op {i} {run['ops'][i][0]}: {verdicts[i]}")
    reasons = collections.Counter(f"{run['ops'][i][0][0]}: {v.split(':')[0]}"
                                  for i, v in enumerate(verdicts) if v is not None)
    for key, n in reasons.most_common():
        print(f"failed x{n} {key}")
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in table.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no {PACKAGE_DIR} under {os.getcwd()}; run from the repository root",
              file=sys.stderr)
        return 2
    if importlib.util.find_spec("mpmath") is None:
        print("error: the benchmark's checker needs mpmath", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
