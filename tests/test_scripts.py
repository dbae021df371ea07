"""Smoke runs of the example scripts as separate processes."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_run_pipeline_prints_metrics(tmp_path):
    done = run_script("run_pipeline.py", "--workdir", str(tmp_path / "run"),
                      "--individuals", "4000", "--epochs", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert re.search(r"^link prediction:  hits@1=[\d.]+  hits@3=[\d.]+  hits@10=[\d.]+  "
                     r"MRR=[\d.]+$", done.stdout, re.MULTILINE)
    assert re.search(r"^decile +\d+: +\d+ hits, SNN grounded=", done.stdout, re.MULTILINE)
    for stage in ("gen", "net", "data", "ckpt", "eval", "snn", "heatmaps"):
        assert (tmp_path / "run" / stage / "effective_config.cfg").exists()


def test_chain_digests_match_the_golden_manifest(tmp_path):
    # gen-synthetic, build-network and split call no BLAS routine, so their
    # bits must match the committed manifest on every machine and numpy.
    done = run_script("chain_digests.py", cwd=tmp_path, TMPDIR=str(tmp_path))
    assert done.returncode == 0, done.stderr
    with open(os.path.join(ROOT, "tests", "golden", "chain_digests.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = json.loads(done.stdout)
    assert len(digests) == 13
    differ = sorted(name for name in golden.keys() | digests.keys()
                    if golden.get(name) != digests.get(name))
    assert not differ, f"files that differ from tests/golden/chain_digests.json: {differ}"


def assert_pipeline_byte_identical(tmp_path, env_name, values):
    """Run run_pipeline.py once per value of the environment variable and
    byte-compare every file the runs write."""
    runs = {}
    for value in values:
        workdir = tmp_path / value
        done = run_script("run_pipeline.py", "--workdir", str(workdir), "--individuals", "4000",
                          "--epochs", "2", cwd=tmp_path, **{env_name: value})
        assert done.returncode == 0, done.stderr
        runs[value] = {str(p.relative_to(workdir)): p.read_bytes()
                       for p in sorted(workdir.rglob("*")) if p.is_file()}
    first, second = (runs[value] for value in values)
    assert {name.split(os.sep)[0] for name in first} == {
        "gen", "net", "data", "ckpt", "eval", "snn", "heatmaps"}
    assert first.keys() == second.keys()
    for name, data in first.items():
        assert data == second[name], name


def test_run_pipeline_byte_identical_across_string_hash_seeds(tmp_path):
    assert_pipeline_byte_identical(tmp_path, "PYTHONHASHSEED", ("1", "2"))


def test_run_pipeline_byte_identical_across_blas_thread_counts(tmp_path):
    assert_pipeline_byte_identical(tmp_path, "OPENBLAS_NUM_THREADS", ("1", "2"))


def test_grid_demo_prints_every_cell(tmp_path):
    done = run_script("grid_demo.py", "--epochs", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("sweeping 8 cells on ")
    assert [int(re.match(r"#(\d+): d_r=", line).group(1)) for line in lines[1:]] == list(
        range(1, 9))
    # One epoch is below eval_every, so each cell is validated after its last epoch.
    cells = [re.search(r" val MRR=([\d.]+) .*\(best epoch (\d+)\)$", line) for line in lines[1:]]
    assert all(cells), lines
    assert all(float(cell.group(1)) > 0.0 and cell.group(2) == "0" for cell in cells)
