"""Checks of the benchmark itself: exact counts, digests, metric names, tracer.

    python3 -m pytest perfbench -q        (about two minutes)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

EXACT = (
    "sdp.builders.calls",
    "sdp.problem.compile_ipm.calls",
    "sdp.problem.compile_ipm.m",
    "sdp.problem.compile_ipm.constraint_mb",
    "sdp.problem.compile_ipm.dropped_directions",
    "sdp.ipm.solve_ipm.iterations",
    "sdp.ipm.solve_ipm.unconverged",
    "sdp.projection.solve_dykstra.iterations",
    "sdp.projection.solve_dykstra.feasible_ratio",
    "sdp.decide.certified_ratio",
    "witness.verify.calls",
    "cli.sweep.calls",
    "trace.ops",
)


def worker(workload: str, seed: int, *extra: str) -> dict:
    env = {"OPENBLAS_NUM_THREADS": run.BLAS_THREADS, "OMP_NUM_THREADS": run.BLAS_THREADS,
           "MKL_NUM_THREADS": run.BLAS_THREADS}
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=300, env={**os.environ, **env},
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith(run.MARK)]
    return json.loads(lines[-1][len(run.MARK):])


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_pair(request):
    """Two traced one-group runs of one workload with the same seed."""
    return [dict(worker(request.param, 7, "--seconds", "0", "--trace", "1"), workload=request.param)
            for _ in range(2)]


def test_same_seed_gives_identical_counts(traced_pair):
    a, b = traced_pair
    assert a["failed"] == 0 and b["failed"] == 0, a["failures"] + b["failures"]
    assert a["digest"] == b["digest"]
    assert (a["attempted"], a["inconclusive"]) == (b["attempted"], b["inconclusive"])
    assert {k: a["layers"][k] for k in EXACT} == {k: b["layers"][k] for k in EXACT}
    assert a["traced"]["spans"] == b["traced"]["spans"]


def test_layers_account_for_traced_wall(traced_pair):
    layers = traced_pair[0]["layers"]
    assert layers["trace.ops"] > 0
    assert 0.9 < layers["trace.coverage"] <= 1.0


def test_every_required_layer_is_traced(traced_pair):
    result = traced_pair[0]
    sweep = result["workload"] == "xi-k-region"
    required = workloads.SWEEP_LAYERS if sweep else workloads.DECIDE_LAYERS
    assert result["missing_layers"] == []
    for name in required:
        assert result["layers"][f"{name}.calls"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_gives_other_digest(workload):
    digests = {worker(workload, seed, "--digest-only")["digest"] for seed in (1, 2, 3)}
    assert len(digests) == 3


def test_metric_names_match_benchmark_json(traced_pair):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(traced_pair[0]["layers"])
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_tail_has_ten_samples_beyond():
    lat = list(range(100))
    assert run.tail(lat) == (89, 90.0)
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail(list(range(11))) == (0, 100.0 / 11)
    assert run.tail(list(range(10))) is None


def test_self_time_subtracts_children():
    mod = types.SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda: mod.inner()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    mod.outer()
    mod.outer()
    tracer.uninstall()
    self_s, calls = tracer.self_times()
    spans = {s[0]: s for s in tracer.spans}
    assert calls == {"inner": 2, "outer": 2}
    assert spans["inner"][3] >= 0 and spans["outer"][3] == -1
    total = sum((s[2] - s[1]) * 1e-9 for s in tracer.spans if s[3] == -1)
    assert self_s["inner"] + self_s["outer"] == pytest.approx(total)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qubit-decide",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
