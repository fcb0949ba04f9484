"""Self-test of the benchmark: python3 -m pytest perfbench -q  (about a minute).

Checks that a tiny run of each workload prints every metric named in
BENCHMARK.json, that the oracle agrees with mpmath.qhyper, and that every
check rejects a planted wrong answer.
"""
import json
import math
import pathlib
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads as W  # noqa: E402

W.bind()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seconds="0.5"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "calls", 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_failed_share_is_fixed_by_the_round():
    """Kept faults are seed-independent, so the failed share is exact."""
    for name, n_faults in (("calls", 4), ("curves", 1)):
        for seed in (1, 2):
            ops = W.make_round(name, np.random.default_rng(seed))
            faults = [op for op in ops if op in W.KEPT_FAULTS.values()]
            assert len(faults) == n_faults


@pytest.mark.parametrize("z", [0.3, -0.45 + 0.2j, 0.5j])
def test_oracle_agrees_with_qhyper(z):
    a, b, c, q = 0.7, 0.4, 0.3, 0.6
    with mpmath.workdps(40):
        want = complex(mpmath.qhyper([a, b], [c], q, z))
    assert abs(complex(oracle.phi_mp(a, b, c, q, z)) - want) < 1e-28 * abs(want)
    value, bound, _ = oracle.phi_double(a, b, c, q, z)
    assert abs(value - want) <= bound
    circle, bounds = oracle.phi_circle(a, b, c, q, abs(z), 256)
    k = 37
    with mpmath.workdps(40):
        want = complex(mpmath.qhyper([a, b], [c], q, abs(z) * mpmath.expjpi(2 * k / 256)))
    assert abs(circle[k] - want) <= bounds[k]


def test_oracle_moments_are_hausdorff():
    m = oracle.moments_mp("shift_bc", 0.9, 0.7, 0.6, 0.8, 15)
    assert m[0] == 1.0 and oracle.hausdorff_ok(m)


def _seeded_op(kind, seed=3):
    for op in W.calls_round(np.random.default_rng(seed)):
        if W.call_kind(op) == kind and op not in W.KEPT_FAULTS.values():
            return op
    raise AssertionError(kind)


def _perturb(value, rel):
    return value * (1 + rel)


@pytest.mark.parametrize("use_mp", [False, True])
def test_phi_check_rejects_a_perturbed_value(use_mp):
    op = _seeded_op("phi")
    out = W.call_op(op)
    assert W.check_call(op, out, use_mp)
    bad = (out[0], _perturb(out[1], 1e-8)) + out[2:]
    assert not W.check_call(op, bad, use_mp)


def test_ratio_check_rejects_a_perturbed_value():
    for seed in range(3):
        op = _seeded_op("ratio", seed)
        out = W.call_op(op)
        assert W.check_call(op, out, False)
        assert not W.check_call(op, (out[0], _perturb(out[1], 1e-7)), False)


def test_identity_check_rejects_a_large_residual():
    op = _seeded_op("identities")
    out = W.call_op(op)
    assert W.check_call(op, out, False)
    assert not W.check_call(op, (out[0], out[1][:3] + (1e-8,)), False)


@pytest.mark.parametrize("kind", ["moments_n15", "moments_n40"])
def test_moment_checks_reject_wrong_moments_and_verdicts(kind):
    op = _seeded_op(kind)
    status, m, passed = W.call_op(op)
    assert W.check_call(op, (status, m, passed), False)
    moved = m[:5] + (m[5] * (1 + 1e-8),) + m[6:]
    assert not W.check_call(op, (status, moved, passed), False)
    assert not W.check_call(op, (status, m, False), False)


def test_kept_faults_fail_their_checks():
    for spec in W.KEPT_FAULTS.values():
        if spec[0] != "curve":
            assert not W.check_call(spec, W.call_op(spec), False)


@pytest.fixture(scope="module")
def curve(tmp_path_factory):
    path = tmp_path_factory.mktemp("curve") / "c.csv"
    op = ("curve", ("shift_a", (0.6, 0.5, 0.3, 0.5), 0.99, 1024))
    rc, _ = W.curve_op(op, str(path))
    return op, rc, path.read_text()


def test_curve_check_rejects_a_moved_sample(curve):
    op, rc, text = curve
    assert W.check_curve(op, rc, text, True)
    lines = text.split("\n")
    theta, re_w, im_w = (float(x) for x in lines[400].split(","))
    lines[400] = f"{theta!r},{re_w * (1 + 1e-7)!r},{im_w!r}"
    assert not W.check_curve(op, rc, "\n".join(lines), False)


def test_curve_check_rejects_missing_rows_and_bad_exit(curve):
    op, rc, text = curve
    lines = text.split("\n")
    assert not W.check_curve(op, rc, "\n".join(lines[:-3] + lines[-2:]), False)
    assert not W.check_curve(op, 2, text, False)


def test_kept_curve_fault_fails(tmp_path):
    spec = W.KEPT_FAULTS["curve_fault"]
    rc, _ = W.curve_op(spec, str(tmp_path / "f.csv"))
    assert not W.check_curve(spec, rc, (tmp_path / "f.csv").read_text(), False)


def test_sweep_check_rejects_a_wrong_record():
    ranges = W.sweep_round(np.random.default_rng(5))
    grid = W.make_grid(ranges)
    records = W.scanner.scan(grid, threads=1)
    text = W.scanner.records_to_csv(records)
    assert all(W.check_sweep_csv(ranges, text))
    lines = text.split("\n")
    cells = lines[1 + 100].split(",")
    cells[7] = {"decreasing_01": "neither"}.get(cells[7], "decreasing_01")
    lines[1 + 100] = ",".join(cells)
    verdicts = W.check_sweep_csv(ranges, "\n".join(lines))
    assert verdicts.count(False) == 1 and not verdicts[100]
