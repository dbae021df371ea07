"""Tests of the benchmark itself: tiny smoke runs, metric names, tracer hygiene.

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import costs  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from affinitykg import kg as kgmod, models  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads_and_bounds_setup_loosest():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke_run(tmp_path, workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
            "--workdir", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stdout
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _bindings():
    """Every function object bound in the package's modules and traced classes."""
    import affinitykg.cli  # noqa: F401 - loads every module the CLI uses

    out = {}
    for key, module in sorted(sys.modules.items()):
        if key == "affinitykg" or key.startswith("affinitykg."):
            for name, value in vars(module).items():
                out[(key, name)] = value
    for name, value in vars(kgmod.KnownTrueSet).items():
        out[("KnownTrueSet", name)] = value
    return out


def test_tracer_restores_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        patched = [k for k in before if during[k] is not before[k]]
    assert not tracer.absent
    assert len(patched) >= len(TARGETS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # A call after exit records nothing.
    models.relation_matrix(models.init_params(4, 2, 3, 2, seed=0), 1)
    assert tracer.spans == []


def test_tracer_restores_on_error_and_counts_spans():
    before = _bindings()
    params = models.init_params(5, 2, 3, 2, seed=0)
    with pytest.raises(RuntimeError):
        with Tracer() as tracer, tracer.stage("cli.test"):
            models.score_all_tails(params, 0, 1)
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    totals = tracer.totals()
    assert totals["models.score_all_tails"]["calls"] == 1
    assert totals["models.relation_matrix"]["calls"] == 1
    outer = totals["models.score_all_tails"]
    assert outer["self_s"] <= outer["s"]
    assert totals["cli.test"]["s"] >= outer["s"]


def test_missing_target_is_reported_absent():
    with Tracer(targets=(("models", "no_such_function", None),
                         ("kg", "KnownTrueSet.no_such_method", None),
                         ("no_such_module", "anything", None))) as tracer:
        pass
    assert tracer.absent == ["models.no_such_function", "kg.KnownTrueSet.no_such_method",
                             "no_such_module.anything"]


@pytest.mark.parametrize("model", workloads.MODELS)
def test_computed_gradient_bytes_match_the_program(model):
    n_e, n_r, d, k = 7, 4, 6, 3
    if model == "tucker":
        params = models.init_params(n_e, n_r, d, k, seed=0)
    else:
        params = models.init_baseline(model, n_e, n_r, d, seed=0)
        k = d
    y = np.zeros(n_e)
    y[2] = 1.0
    _, grads = models.loss_and_grads(params, 1, 2, y)
    assert sum(g.nbytes for g in grads.values()) == costs.grad_bytes_per_query(
        model, n_e, n_r, d, k)


def test_counter_that_no_longer_fits_is_reported_not_raised():
    def needs_a_dict_result(tracer, args, kwargs, result):
        return result["missing"]

    params = models.init_params(5, 2, 3, 2, seed=0)
    with Tracer(targets=(("models", "score_all_tails", needs_a_dict_result),)) as tracer:
        models.score_all_tails(params, 0, 1)
    assert tracer.absent == ["models.score_all_tails:counter"]
    assert tracer.totals()["models.score_all_tails"]["calls"] == 1
