"""Self-tests of the benchmark: the checker, the inputs and minimal runs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import besselcert as bc  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

pytest.importorskip("mpmath")


def _verdict(op: list, result=None, error=None):
    return check.judge([[op, 0.0, result, error]], set())[0]


def _cli(*argv: str) -> list:
    proc = subprocess.run([sys.executable, "-m", "besselcert.cli", *argv],
                          capture_output=True, cwd=ROOT, env=run._env())
    return [proc.returncode, proc.stdout.decode(), proc.stderr.decode()]


def test_checker_flags_the_large_order_oracle_defect():
    r = bc.bessel_j_ref(bc.Order(55.5), 60.0)
    assert r.value == 0.0  # the true value is 0.1555221570...
    verdict = _verdict(["j", 55.5, 60.0], [r.value, r.abs_err_estimate])
    assert verdict.startswith("outside estimate")
    summary = check.summarize([[["j", 55.5, 60.0], 0.0, None, None]], [verdict])
    assert summary["failed"] == 1 and summary["oracle_wrong"] == 1
    assert summary["correct"]  # above KNOWN_DEFECT_NU: counted, not unexpected


def test_checker_flags_the_cli_printing_zero():
    result = _cli("eval", "--nu", "45.1", "--x", "40")
    assert result[0] == 0 and ",0,0," in result[1]  # prints value 0 and exits 0
    verdict = _verdict(["cli", ["eval", "--nu", "45.1", "--x", "40"]], result)
    assert verdict.startswith("outside half_width")


def test_checker_flags_wrong_results_below_the_defect_order():
    verdicts = [_verdict(["j", 2.5, 10.0], [0.1, 1e-17]),
                _verdict(["best", 2.5, 30.0], [0.0, 1e-6, "classic"]),
                _verdict(["envelope", 1.0, 7.0], ["envelope", 0.5, 1.0, 0.5, True]),
                _verdict(["airy_zero", 1], 2.3381),
                _verdict(["j", 1.0, 1.0], None, ["PrecisionError", "refused"])]
    assert all(v is not None for v in verdicts)
    ops = [[["j", 2.5, 10.0], 0.0, None, None]] * len(verdicts)
    assert not check.summarize(ops, verdicts)["correct"]


def test_checker_passes_known_good_points():
    order, x = bc.Order(2.5), 10.0
    reports = bc.lemma_integral_check(60.0)
    good = [
        (["j", 2.5, x], list(vars(bc.bessel_j_ref(order, x)).values())),
        (["jp", 2.5, x], list(vars(bc.bessel_j_prime_ref(order, x)).values())),
        (["ai", x], list(vars(bc.airy_ai_neg_ref(x)).values())),
        (["best", 2.5, 30.0], list(vars(bc.best_approx(order, 30.0)).values())[:3]),
        (["envelope", 1.0, 7.0], list(vars(bc.bound_envelope(bc.Order(1.0), 7.0)).values())),
        (["watson", 1.0, 7.0], list(vars(bc.bound_watson(bc.Order(1.0), 7.0)).values())),
        (["lemma", 60.0], [list(vars(r).values()) for r in reports]),
        (["airy_zero", 3], bc.refine_airy_zero(3)),
        (["bessel_zero", 2.5, 2], bc.refine_bessel_zero(order, 2)),
        (["cli", ["eval", "--nu", "0", "--x", "1"]], _cli("eval", "--nu", "0", "--x", "1")),
        (["cli", ["zeros", "--family", "airy", "--s", "2"]],
         _cli("zeros", "--family", "airy", "--s", "2")),
    ]
    for op, result in good:
        assert _verdict(op, result) is None, op


def test_replays_that_differ_fail():
    ops = [[["j", 2.5, 10.0], 0.0, [0.1, 1e-17], None]]
    assert check.judge(ops, {0})[0].startswith("replays differ")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    def ops(seed):
        return workloads.operations(workload, seed, 2.0)
    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_attempts_the_same_number_of_operations(workload):
    per_execution = 18.0 / run.REPS
    assert len({len(workloads.operations(workload, seed, per_execution))
                for seed in range(1, 11)}) == 1


def test_probe_time_is_left_out_and_speed_is_taken_near_each_operation():
    ref = worker.PROBE_REF_S["loop"]
    probes = worker.Probes("loop")
    # five probes at the reference time around t = 0, five twice as slow around t = 10
    probes.spans = ([(0.1 * k, 0.1 * k + ref) for k in range(5)]
                    + [(10 + 0.1 * k, 10 + 0.1 * k + 2 * ref) for k in range(5)])
    assert probes.paused(0.0, 0.45, 0) == pytest.approx(5 * ref)
    assert probes.paused(0.05, 0.45, 0) == pytest.approx(4 * ref)
    assert probes.paused(0.0, 0.45, 5) == 0.0
    assert probes.speeds([(0.1, 0.2), (10.1, 10.2)]) == pytest.approx([1.0, 0.5])


def test_point_queries_are_fresh_and_balanced():
    stream = workloads.point_queries(3)
    ops = [next(stream) for _ in range(600)]
    points = [op[1:] for op in ops]
    assert len(set(points)) == len(points)
    kinds = [op[0] if op[0] not in ("envelope", "watson") else "bound" for op in ops]
    assert {kinds.count(k) for k in workloads.POINT_KINDS} == {120}
    assert max(op[1] for op in ops if op[0] != "ai") > 55  # large orders stay in


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in workloads.WORKLOADS]
                         + [("search_claims", 1), ("cli_oneshot", 1)])
def test_minimal_run_completes(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
                          capture_output=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
