#!/usr/bin/env python3
"""Benchmark of the affinitykg pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

A run writes the workload's inputs for the seed (set-up, in a child process),
then repeats the workload's timed CLI stages in this process until --seconds
have passed, checks every output, and prints one JSON result as its last
line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up runs at least SETUP_REPS_MIN times, and more, up to SETUP_REPS_MAX,
# while the set-ups so far took less than SETUP_BUDGET_S: a cheap set-up (a
# fraction of a second, mostly interpreter start-up) gets more samples for its
# median, an expensive one (seconds) does not lengthen the run.
SETUP_REPS_MIN = 3
SETUP_REPS_MAX = 9
SETUP_BUDGET_S = 3.0
# A uniform-random scorer reaches twice its expected MRR on a few hundred
# queries with odds far below one in a million.
MRR_FLOOR_FACTOR = 2.0


# --- small helpers -----------------------------------------------------------

def digest_dir(path: str) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode("utf-8") + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program and benchmark sources: one value per commit."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "affinitykg"), HERE):
        for path in sorted(glob.glob(os.path.join(base, "*.py"))):
            h.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def blas_threads():
    """Effective OpenBLAS thread count of the loaded numpy, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "blas_threads_within_nproc": threads is None or threads <= nproc,
        "machine": platform.machine(),
    }


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith(b"#"))


def all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Output checks, each one counted as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --- the timed body ----------------------------------------------------------

def call_cli(argv) -> tuple:
    """Run one CLI stage in this process; returns (exit code, captured stderr)."""
    from affinitykg import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


# Host speed drifts: on the 2-vCPU reference VM the same stage takes up to
# twice as long from one minute to the next. Every time reported in --trace 0
# is therefore in reference seconds: the stage's wall time scaled by
# PROBE_REFERENCE_S / (mean of the speed probes run just before and just after
# it). The probe is the benchmark's own code, never the program's, so a faster
# program still reads faster; on a host running at reference speed, reference
# seconds equal wall seconds. Raw wall times and probe times go to result.json.
PROBE_REFERENCE_S = 0.02


class SpeedProbe:
    """A fixed mix of the pipeline's two kinds of work, timed on demand (~20 ms).

    Half is interpreter-bound (numpy-row scans as in the SNN stage, dict
    updates as in the builder); half is numpy-bound with Tucker's per-query
    shapes (a core contraction, an outer product, a matrix-vector product).
    On the reference VM the first tracks the slowdowns of Python-heavy stages
    and the second those of d_e=200 training; neither alone tracks both.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, 64, size=(4000, 3))
        self.core = rng.random((200, 10, 200))
        self.relation = rng.random(10)
        self.matrix = rng.random((200, 200))
        self()    # warm-up: the first call pays one-off costs

    def __call__(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        total = 0
        for _, r, t in self.rows:
            if r == 7:
                total += int(t)
        counts: dict = {}
        for i in range(20000):
            key = (i * 7919) % 1543
            counts[key] = counts.get(key, 0) + 1
        for _ in range(30):
            m = np.einsum("pqj,q->pj", self.core, self.relation)
            v = self.matrix[0] @ m
            np.outer(v, v)
            self.matrix @ v
        return time.perf_counter() - t0


def reference_seconds(wall: float, probe_before: float, probe_after: float) -> float:
    return wall * PROBE_REFERENCE_S / ((probe_before + probe_after) / 2)


class Rep:
    """One execution of the workload's timed stages."""

    def __init__(self, index: int, directory: str, stages: list, traced: bool, probe=None):
        self.index = index
        self.probe = probe     # SpeedProbe for untraced runs; traced runs report raw times
        self.probes = []       # speed probe before each stage and after the last
        self.directory = directory
        self.stages = stages
        self.tracer = None
        self.stage_ids = []    # tracer stage id per stage run, when traced
        self.times = []        # wall seconds per stage run
        self.codes = []
        self.wall = 0.0
        self.traced = traced

    def run(self) -> None:
        from tracer import Tracer

        tracer = Tracer() if self.traced else None
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            for stage in self.stages:
                if self.probe is not None:
                    self.probes.append(self.probe())
                t0 = time.perf_counter()
                if tracer is not None:
                    with tracer.stage(f"cli.{stage.name}") as sid:
                        code, err = call_cli(stage.argv)
                    self.stage_ids.append(sid)
                else:
                    code, err = call_cli(stage.argv)
                self.times.append(time.perf_counter() - t0)
                self.codes.append(code)
                if code != 0:
                    print(f"stage {stage.name} exited {code}:\n{err}", file=sys.stderr)
                    break
            if self.probe is not None:
                self.probes.append(self.probe())
            self.wall = time.perf_counter() - start
        self.tracer = tracer

    @property
    def ok(self) -> bool:
        return len(self.codes) == len(self.stages) and not any(self.codes)

    def stage_time(self, name: str) -> float:
        return sum(t for s, t in zip(self.stages, self.times) if s.name == name)

    def reference_times(self) -> list:
        return [reference_seconds(t, self.probes[i], self.probes[i + 1])
                for i, t in enumerate(self.times)]


def run_reps(workload, seed, inputs, run_dir, sizes, seconds, trace) -> list:
    """Repeat the timed stages until `seconds` have passed (at least once each).

    With tracing, the first repetition runs untraced; it gives the baseline
    for the tracing overhead. Every later one is traced.
    """
    import workloads

    probe = None if trace else SpeedProbe()
    reps = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(reps) > 0
        index = len(reps)
        rep_dir = os.path.join(run_dir, f"rep{index}")
        stages = workloads.STAGES[workload](seed, inputs, rep_dir, sizes)
        rep = Rep(index, rep_dir, stages, traced, probe)
        rep.run()
        reps.append(rep)
        if not rep.ok:
            break
        if trace and len(reps) == 1:
            continue
        same_kind = [r.wall for r in reps if r.traced == traced]
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(same_kind) > seconds:
            break
    return reps


# --- set-up ------------------------------------------------------------------

def setup_subprocess(workload: str, seed: int, scale: str, out: str, probe) -> tuple:
    """Write the inputs in a child process; returns (wall s, reference s)."""
    argv = [sys.executable, os.path.join(HERE, "make_inputs.py"), "--workload", workload,
            "--seed", str(seed), "--scale", scale, "--out", out]
    before = probe()
    t0 = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False, timeout=170)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed ({done.returncode}): {done.stderr.strip()}")
    return elapsed, reference_seconds(elapsed, before, probe())


def setup_traced(workload: str, seed: int, sizes, out: str):
    """Write the inputs in this process under a tracer; returns the tracer."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    label = "cli.gen-synthetic" if workloads.WORKLOADS[workload].inputs == "records" else "setup"
    with tracer, tracer.stage(label):
        workloads.make_inputs(workload, seed, out, sizes)
    return tracer


# --- output checks and derived figures ---------------------------------------

def data_dir_of(rep: Rep) -> str:
    for stage in rep.stages:
        if stage.name == "train":
            return stage.argv[stage.argv.index("--data") + 1]
    raise ValueError("workload has no train stage")


def random_scorer_mrr(data_dir: str) -> float:
    """Expected filtered test MRR of a scorer that ranks candidates uniformly at random."""
    from affinitykg import kg as kgmod

    graph = kgmod.load_kg_dir(data_dir)
    known = kgmod.KnownTrueSet(graph)
    n_base = graph.n_base_relations
    values = []
    for h, r, t in graph.test:
        h, r, t = int(h), int(r), int(t)
        for query, rel, target in ((h, r, t), (t, r + n_base, h)):
            candidates = graph.n_entities - len(known.tails_of(query, rel) - {target})
            values.append(sum(1.0 / k for k in range(1, candidates + 1)) / candidates)
    return statistics.fmean(values)


def training_queries(data_dir: str) -> int:
    """Grouped (head, relation) 1:N queries per epoch, reciprocals included."""
    import numpy as np
    from affinitykg import kg as kgmod

    aug = kgmod.add_reciprocals(kgmod.load_kg_dir(data_dir))
    return len(np.unique(aug.train[:, :2], axis=0))


def check_rep(rep: Rep, workload, checks: Checks) -> dict:
    """Check one repetition's outputs; returns the figures its metrics need."""
    for i, stage in enumerate(rep.stages):
        code = rep.codes[i] if i < len(rep.codes) else None
        checks.check(code == 0, f"rep {rep.index}: stage {stage.name} exit code {code}")
    if not rep.ok:
        return {}
    data = data_dir_of(rep)
    test_size = count_lines(os.path.join(data, "test.tsv"))
    queries = training_queries(data)
    figures = {"mrr": [], "loss": [], "query_epochs": 0}
    for stage in rep.stages:
        if stage.name == "train":
            with open(os.path.join(stage.out, "log.jsonl"), encoding="utf-8") as fh:
                log = [json.loads(line) for line in fh]
            figures["query_epochs"] += queries * len(log)
            figures["loss"].append(log[-1]["loss"])
            checks.check(all_finite(log), f"rep {rep.index}: non-finite value in {stage.out}/log.jsonl")
        elif stage.name == "evaluate":
            metrics = read_json(os.path.join(stage.out, "metrics.json"))
            checks.check(all_finite(metrics), f"rep {rep.index}: non-finite metric in {stage.out}")
            checks.check(metrics["n"] == 2 * test_size,
                         f"rep {rep.index}: {stage.out} n={metrics['n']}, test fold {test_size}")
            if stage.sample == 0:
                figures["mrr"].append((stage.model, metrics["mrr"]))
        elif stage.name == "build-network":
            report = read_json(os.path.join(stage.out, "build_report.json"))
            lines = count_lines(os.path.join(stage.out, "triples.tsv"))
            checks.check(lines == report["triples"],
                         f"rep {rep.index}: triples.tsv has {lines} lines, report says "
                         f"{report['triples']}")
            figures["records"] = report["records"]
        elif stage.name == "analyze":
            report = read_json(os.path.join(stage.out, "snn_report.json"))
            for row in report["deciles"]:
                total = (row["frac_network_grounded"] + row["frac_embedding_grounded"]
                         + row["frac_unexplained"])
                checks.check(abs(total - 1.0) <= 1e-9,
                             f"rep {rep.index}: decile {row['decile']} fractions sum to {total}")
            n_hits = sum(row["n_hits"] for row in report["deciles"])
            with open(os.path.join(data, "test.tsv"), encoding="utf-8") as fh:
                distinct = len(set(fh))
            checks.check(n_hits == distinct,
                         f"rep {rep.index}: {n_hits} SNN hits, {distinct} distinct test triples")
            figures["hits"] = n_hits
    if workload.trains and rep.index == 0:
        floor = MRR_FLOOR_FACTOR * random_scorer_mrr(data)
        for model, mrr in figures["mrr"]:
            checks.check(mrr > floor,
                         f"{model} test MRR {mrr:.4f} not above the random-scorer floor {floor:.4f}")
        figures["floor"] = floor
    return figures


def check_digests(reps, inputs_dirs, checks: Checks, state_path: str, key: str) -> dict:
    """Digest every artifact directory; repeats of one source must match byte for byte."""
    digests = {"inputs": digest_dir(inputs_dirs[0])}
    for i, other in enumerate(inputs_dirs[1:], start=1):
        checks.check(digest_dir(other) == digests["inputs"], f"set-up {i} inputs differ from set-up 0")
    for rep in reps:
        if not rep.ok:
            continue
        for stage in rep.stages:
            name = os.path.relpath(stage.out, rep.directory)
            if stage.sample:
                name = name.rsplit("-", 1)[0]    # every sample must match the first
            value = digest_dir(stage.out)
            if name not in digests:
                digests[name] = value
            else:
                checks.check(value == digests[name],
                             f"rep {rep.index}: {stage.out} differs from the first {name}")
    state = read_json(state_path) if os.path.exists(state_path) else {}
    earlier = state.get(key)
    if earlier is not None:
        for name, value in digests.items():
            if name in earlier:
                checks.check(earlier[name] == value,
                             f"{name} differs from an earlier run of the same source")
    state[key] = {**(earlier or {}), **digests}
    with open(state_path, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    return digests


# --- metrics -----------------------------------------------------------------

def end_to_end_metrics(reps, figures, setup_times) -> dict:
    """Times in reference seconds. A stage's time is the median over every
    sample of it in the run, so a burst of host noise in one sample does not
    move the result; wall_s sums them over one pass of the pipeline."""
    samples: dict = {}
    for rep in reps:
        for stage, t in zip(rep.stages, rep.reference_times()):
            samples.setdefault(stage.key, []).append(t)
    passes = [stage for stage in reps[0].stages if stage.sample == 0]
    medians = [statistics.median(samples[stage.key]) for stage in passes]
    wall = sum(medians)
    train = sum(t for stage, t in zip(passes, medians) if stage.name == "train")
    return {
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "wall_s": wall,
        "train_queries_per_s": figures["query_epochs"] / train,
        "read_side_s": wall - train,
        "final_loss": statistics.fmean(figures["loss"]),
    }


def layer_metrics(rep: Rep, workload, shapes, names) -> dict:
    """Per-layer metrics of one traced repetition."""
    import costs
    import workloads

    tracer = rep.tracer
    totals = tracer.totals()
    counts = tracer.counts

    def total(name, field):
        return totals.get(name, {}).get(field, 0)

    out = {}
    for name in names:
        module_fn, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and module_fn.count(".") >= 1:
            out[name] = total(module_fn, field)
    out["models.loss_and_grads.grad_mb"] = counts.get("models.loss_and_grads.grad_bytes", 0) / 1e6
    tucker_queries = counts.get("models.tucker_queries", 0)
    out["models.relation_matrix.calls_per_query"] = (
        total("models.relation_matrix", "calls") / tucker_queries if tucker_queries else 0.0)
    n_e, n_r = shapes
    for model in workloads.MODELS:
        d, k = workload.d_e, (10 if model == "tucker" else workload.d_e)
        macs = costs.train_query_macs(model, n_e, d, k)
        out[f"models.{model}.macs_per_query.computed"] = macs
        out[f"models.{model}.grad_bytes_per_query.computed"] = costs.grad_bytes_per_query(
            model, n_e, n_r, d, k)
        stages = {sid for sid, stage in zip(rep.stage_ids, rep.stages)
                  if stage.name == "train" and stage.model == model}
        row = tracer.totals(stages).get("models.loss_and_grads") if stages else None
        out[f"models.{model}.achieved_gmacs_per_s"] = (
            macs * row["calls"] / row["s"] / 1e9 if row and row["s"] > 0 else 0.0)
    epochs = tracer.durations("trainer.train_epoch")
    out["trainer.train_epoch.samples"] = len(epochs)
    out["trainer.train_epoch.p50_s"] = statistics.median(epochs) if epochs else 0.0
    out["trainer.train_epoch.p90_s"] = (
        statistics.quantiles(epochs, n=10, method="inclusive")[8] if len(epochs) > 1
        else (epochs[0] if epochs else 0.0))
    out["evaluator.compute_ranks.queries"] = counts.get("evaluator.compute_ranks.queries", 0)
    out["evaluator.filtered_candidates"] = counts.get("evaluator.filtered_candidates", 0)
    out["snn.analyze_predictions.hits"] = counts.get("snn.analyze_predictions.hits", 0)
    out["snn.train_rows_scanned"] = counts.get("snn.train_rows_scanned", 0)
    out["builder.read_records_csv.records"] = counts.get("builder.read_records_csv.records", 0)
    counted = counts.get("builder.pairs_counted", 0)
    out["builder.pairs_kept_ratio"] = counts.get("builder.pairs_kept", 0) / counted if counted else 0.0
    out["kg.KnownTrueSet.build_s"] = total("kg.KnownTrueSet.__init__", "s")
    out["trace.traced_wall_s"] = rep.wall
    out["trace.spans"] = len(tracer.spans)
    out["trace.absent"] = len(tracer.absent)
    return out


def trace_metrics(reps, figures, setup_tracer, workload, shapes, names) -> dict:
    untraced = reps[0]
    traced = [r for r in reps if r.traced]
    per_rep = [layer_metrics(r, workload, shapes, names) for r in traced]
    out = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    setup_totals = setup_tracer.totals()
    for name in ("synthetic.generate_population", "synthetic.write_records_csv",
                 "synthetic.two_block_kg"):
        out[f"{name}.s"] = setup_totals.get(name, {}).get("s", 0.0)
    for field in ("s", "self_s"):
        out[f"cli.gen-synthetic.{field}"] = setup_totals.get("cli.gen-synthetic", {}).get(field, 0.0)
    out["trace.untraced_wall_s"] = untraced.wall
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - untraced.wall
    out["evaluator.test_mrr"] = statistics.fmean(mrr for _, mrr in figures["mrr"])
    build_time = untraced.stage_time("build-network")
    analyze_time = untraced.stage_time("analyze")
    out["build_records_per_s"] = figures.get("records", 0) / build_time if build_time else 0.0
    out["snn_hits_per_s"] = figures.get("hits", 0) / analyze_time if analyze_time else 0.0
    return out


# --- entry points ------------------------------------------------------------

def run_one(args) -> dict:
    import affinitykg.cli  # noqa: F401 - imported before any stage is timed
    import workloads

    sizes = workloads.SCALES[args.scale]
    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(args.workdir, f"{workload.name}-{args.scale}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    checks = Checks()
    setup_tracer = None
    setup_times = []
    if args.trace:
        inputs_dirs = [os.path.join(run_dir, "inputs0")]
        setup_tracer = setup_traced(workload.name, args.seed, sizes, inputs_dirs[0])
    else:
        inputs_dirs = []
        probe = SpeedProbe()
        while len(inputs_dirs) < SETUP_REPS_MAX and (
                len(inputs_dirs) < SETUP_REPS_MIN or sum(t for t, _ in setup_times) < SETUP_BUDGET_S):
            inputs_dirs.append(os.path.join(run_dir, f"inputs{len(inputs_dirs)}"))
            setup_times.append(setup_subprocess(workload.name, args.seed, args.scale,
                                                inputs_dirs[-1], probe))

    reps = run_reps(workload.name, args.seed, inputs_dirs[0], run_dir, sizes, args.seconds,
                    args.trace)
    peak_rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    figures = {}
    for rep in reps:
        rep_figures = check_rep(rep, workload, checks)
        figures = figures or rep_figures
    key = f"{source_digest()}:{workload.name}:{args.scale}:{args.seed}"
    digests = check_digests(reps, inputs_dirs, checks,
                            os.path.join(args.workdir, "digests.json"), key)
    # BENCHMARK.json lists the metrics each kind of run reports, with units.
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    if all(r.ok for r in reps):
        if args.trace:
            from affinitykg import kg as kgmod

            graph = kgmod.load_kg_dir(data_dir_of(reps[0]))
            shapes = (graph.n_entities, 2 * graph.n_base_relations)
            metrics = trace_metrics(reps, figures, setup_tracer, workload, shapes, units)
        else:
            metrics = end_to_end_metrics(reps, figures, setup_times)
            metrics["peak_rss_mb"] = peak_rss_bytes / 1e6

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "machine": machine_info(),
        "probe_reference_s": PROBE_REFERENCE_S,
        "reps": [{"wall_s": r.wall, "traced": r.traced, "probes": r.probes,
                  "stages": [[s.key, t] for s, t in zip(r.stages, r.times)]}
                 for r in reps],
        "setup_s": [wall for wall, _ in setup_times],
        "setup_reference_s": [ref for _, ref in setup_times],
        "test_mrr": dict(figures.get("mrr", [])),
        "mrr_floor": figures.get("floor"),
        "digests": digests,
        "absent": sorted({name for tracer in [setup_tracer] + [r.tracer for r in reps]
                          if tracer is not None for name in tracer.absent}),
        "failures": checks.failures,
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    traced = [r for r in reps if r.traced]
    if traced:
        traced[-1].tracer.write_jsonl(os.path.join(run_dir, "spans.jsonl"))
    for rep in reps:
        shutil.rmtree(rep.directory, ignore_errors=True)
    for d in inputs_dirs:
        shutil.rmtree(d, ignore_errors=True)

    print_summary(report, units, checks)
    return {
        "correct": not checks.failures and bool(metrics),
        "attempted": max(checks.attempted, 1),
        "failed": len(checks.failures) if metrics else max(len(checks.failures), 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def print_summary(report: dict, units: dict, checks: Checks) -> None:
    m = report["machine"]
    print(f"== {report['workload']} seed {report['seed']} scale {report['scale']} "
          f"trace {report['trace']}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} {m['blas_version']} blas_threads={m['blas_threads']}")
    for rep in report["reps"]:
        stages = " ".join(f"{key}={t:.3f}s" for key, t in rep["stages"])
        probe = f" probe={statistics.median(rep['probes']) * 1e3:.1f}ms" if rep["probes"] else ""
        print(f"rep wall={rep['wall_s']:.3f}s{probe} traced={rep['traced']}: {stages}")
    for name, unit in units.items():
        if name in report["metrics"]:
            print(f"  {name:48s} {report['metrics'][name]:.6g} {unit}")
    floor = report["mrr_floor"]
    for model, mrr in report["test_mrr"].items():
        print(f"test MRR {model} {mrr:.4f}" + (f" (floor {floor:.4f})" if floor else ""))
    for name, value in sorted(report["digests"].items()):
        print(f"digest {name} {value}")
    if report["absent"]:
        print(f"absent from the program: {', '.join(report['absent'])}")
    print(f"checks: {checks.attempted} attempted, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"  FAILED {failure}")


def run_all(args) -> dict:
    """Every workload in its own child process, so each reports its own peak RSS."""
    import workloads

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale, "--workdir", args.workdir]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {done.returncode}")
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            result["metrics"][f"{name}/{metric}"] = value
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny runs each workload in seconds, for smoke tests")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".perfbench"),
                        help="scratch directory for inputs, artifacts and results")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affinitykg", "cli.py")):
        print(f"error: affinitykg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    args.workdir = os.path.abspath(args.workdir)
    os.makedirs(args.workdir, exist_ok=True)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
