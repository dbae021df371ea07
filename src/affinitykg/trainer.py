"""Adam optimization, epoch orchestration, grid search, and checkpoints.

Training groups the (reciprocal-augmented) triples once per fit into a table of
1:N queries, (head, relation) pairs and their tail ids; batch_size counts
queries, not raw triples. Each batch goes through one batched forward/backward
(models.batch_loss_and_grads), which sums the gradients of its queries with
GEMMs in a fixed order; one Adam update is then applied in place. A fixed seed
reproduces the parameter trajectory bit for bit.

RNG discipline: fit derives one generator per epoch as
default_rng([seed, epoch]); within an epoch that stream is consumed first by
the batch shuffle, then by the per-query dropout masks, in iteration order.
A chunk of Tucker queries draws its masks in one call that takes that stream.
Where models.chunk_size(d_e) is 1, a helper thread draws an epoch's masks a
block of queries per call into two reused buffers, one block ahead; elsewhere
the training thread draws them. The doubles and their order are the same.
Every epoch holds OpenBLAS to one thread.

Checkpoint layout: a directory holding meta.json plus, per parameter block
(E.bin, R.bin, G.bin), three raw little-endian float64 files named by
BLOCK_PREFIXES: the block and its two Adam moments. meta.json records shapes,
config, the hashes of the vocabulary and of the fold files trained on, the
epoch, and the validation metrics of the stored parameters; it is written last.
"""

import contextlib
import ctypes
import functools
import importlib
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from affinitykg import evaluator as evalmod
from affinitykg import models
from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.kg import KnowledgeGraph, KnownTrueSet, add_reciprocals
from affinitykg.models import (
    DropoutSpec,
    ModelParams,
    batch_loss_and_grads,
    init_params,
    sample_masks,
    smooth_labels,
)
from affinitykg.util import atomic_write_bytes, atomic_write_text, canonical_json, open_text


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 0.005
    decay_rate: float = 1.0
    seed: int = 0
    model: str = "tucker"
    d_e: int = 200
    d_r: int = 10
    dropout: DropoutSpec = field(default_factory=lambda: DropoutSpec(0.5, 0.2, 0.2))
    label_smoothing: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_every: int = 10
    patience: int = 20

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        for name in ("label_smoothing", "adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.adam_eps < np.inf:
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        for name in ("batch_size", "eval_every", "d_e", "d_r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ValueError("decay_rate must lie in (0, 1]")
        if self.model not in models.MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.epochs < 0 or self.patience < 0:
            raise ValueError("epochs and patience must be non-negative")


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        blocks = params.param_blocks()
        return cls(
            m={name: np.zeros_like(arr) for name, arr in blocks.items()},
            v={name: np.zeros_like(arr) for name, arr in blocks.items()},
        )


def adam_step(params, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update, in place over the parameter blocks.

    Each block needs two scratch buffers of its size; the operations run in
    the order of the textbook formula, so the result is the same bit for bit.
    """
    state.step += 1
    t = state.step
    for name, arr in params.param_blocks().items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, expected {arr.shape}")
        m = state.m[name]
        v = state.v[name]
        a, b = np.empty_like(arr), np.empty_like(arr)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - beta2, out=a)
        np.divide(m, 1.0 - beta1 ** t, out=a)   # m_hat
        a *= lr
        np.divide(v, 1.0 - beta2 ** t, out=b)   # v_hat
        np.sqrt(b, out=b)
        b += eps
        a /= b
        arr -= a
    return params, state


def group_queries(train_triples: np.ndarray):
    """The 1:N queries of training triples as (queries, tails): the distinct
    (h, r) pairs as sorted (n, 2) rows, so order never depends on input order,
    and tails[i], the sorted distinct tail ids of query i."""
    # Sorted by h, then r, then t, a row is new where it differs from the row above
    # (no id is -1). Not np.unique(axis=0): on numpy 2.4 it imports numpy.ma (1.2 MB).
    rows = train_triples[np.lexsort(train_triples.T[::-1])]
    triples = rows[np.diff(rows, axis=0, prepend=-1).any(axis=1)]
    starts = np.flatnonzero(np.diff(triples[:, :2], axis=0, prepend=-1).any(axis=1))
    return triples[starts, :2], np.split(triples[:, 2], starts)[1:]  # drop the piece before 0


@functools.cache
def openblas_threads():
    """OpenBLAS's (get, set) thread-count functions, found through the numpy
    extension that links it, or None where numpy links another BLAS."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            try:
                get, set_ = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}")
                             for op in ("get", "set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS held to one thread, its count restored on exit, and nothing
    without OpenBLAS. Every CLI command, every epoch and snn.asymmetry_index
    run inside it. Its idle helper would spin on the mask worker's core, and
    training ran no faster at the default count. Above 10 000 entries
    np.linalg.norm's dot product splits its sum over the threads, so a d_e=200
    asymmetry index would depend on the count; and while the other CPU was
    busy, a small product such as snn.transform_embeddings (1200 entities,
    d_e=32) took up to 8 ms at two threads against 0.1 ms at one."""
    control = openblas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# Bytes of each of the mask worker's two reused buffers: a block of 6 queries' masks at
# d_e=200 (40 400 doubles each), and one query where its masks alone are larger.
MASK_BLOCK_BYTES = 2 * 1024 * 1024


def _masks_ahead(pool, draw, count, width):
    """A stand-in for draw over count one-query chunks of width doubles each.

    pool runs draw(n, out) over blocks of queries in order, each filling one
    of two reused (block, width) buffers, one block ahead of the query taking
    masks. A buffer is refilled only once the first query of the next block
    is taken, so a query's masks, views of a buffer, stay intact until the
    next take."""
    block = max(1, MASK_BLOCK_BYTES // (8 * width))
    slots = [np.empty((min(block, count), width)) for _ in range(2)]

    def fill(start):
        out = slots[start // block % 2][:count - start]
        return pool.submit(draw, len(out), out)

    def queries(ahead):
        for start in range(0, count, block):
            masks = ahead.result()
            if start + block < count:  # into the buffer whose last query has been taken
                ahead = fill(start + block)
            for row in range(min(block, count - start)):
                yield tuple(m if m is None else m[row:row + 1] for m in masks)
    rows = queries(fill(0))  # the first block starts now, before any take

    def take(n):  # one query's masks given to n > 1 queries would broadcast
        if n != 1:
            raise ValueError(f"the mask feed hands out one query per call, not {n}")
        return next(rows)
    return take


def train_epoch(grouped, params, state: AdamState, config: TrainConfig,
                rng: np.random.Generator, lr: float) -> tuple[float, int]:
    """One pass at learning rate lr over the (queries, tails) table of
    group_queries, in batches of shuffled rows: a batch's heads and relations
    are the columns of queries[batch], and its label row j is tails[batch[j]].
    Returns the mean query loss and the number of probabilities it clamped.
    """
    queries, tails = grouped
    if not len(queries):
        raise ValueError("empty training set")
    order = rng.permutation(len(queries))
    draw_masks = functools.partial(sample_masks, config.dropout, params.d_e, rng)
    total_loss = 0.0
    clamped = 0
    width = models.mask_width(config.dropout, params.d_e)
    with one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        if params.G is not None and models.chunk_size(params.d_e) == 1 and width:
            draw_masks = _masks_ahead(pool, draw_masks, len(queries), width)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            Y = np.zeros((len(batch), params.n_entities))
            for row, i in zip(Y, batch):
                row[tails[i]] = 1.0
            Y = smooth_labels(Y, config.label_smoothing)
            losses, grads, n_clamped = batch_loss_and_grads(params, queries[batch, 0],
                                                            queries[batch, 1], Y, draw_masks)
            clamped += n_clamped
            for loss in losses.tolist():
                total_loss += loss
            adam_step(params, grads, state, lr,
                      config.adam_beta1, config.adam_beta2, config.adam_eps)
    return total_loss / len(queries), clamped


@dataclass
class TrainResult:
    params: object
    adam_state: AdamState
    log: list
    best_epoch: int
    best_val_mrr: float
    best_val_report: object | None
    epochs_run: int


def fit(kg: KnowledgeGraph, config: TrainConfig) -> TrainResult:
    """Train on the augmented training fold with periodic validation.

    Validates every `eval_every` epochs, and after the last epoch if no
    validation has run by then, all against one KnownTrueSet built per fit.
    Keeps the parameters with the best validation MRR (filtered); stops early
    once `patience` consecutive evaluations fail to improve it. The learning
    rate is multiplied by decay_rate after every epoch. Each log record counts
    the probabilities the loss clamped in its epoch. A parameter block left
    with a non-finite value after an epoch is a RuntimeError.
    """
    aug = kg if kg.has_reciprocals else add_reciprocals(kg)
    params = init_params(aug.n_entities, aug.n_relations, config.d_e, config.d_r,
                         config.seed, config.model)
    state = AdamState.for_params(params)
    grouped = group_queries(aug.train)

    best_params = None
    best_epoch = -1
    best_mrr = -np.inf
    best_report = None
    bad_evals = 0
    log = []
    lr = config.learning_rate
    epochs_run = 0
    has_validation = len(kg.valid) > 0
    known = KnownTrueSet(kg) if has_validation else None
    validated = False

    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, epoch])
        loss, clamped = train_epoch(grouped, params, state, config, rng, lr)
        for name, arr in params.param_blocks().items():
            if not np.isfinite(arr).all():
                raise RuntimeError(f"training diverged: {name} has non-finite values "
                                   f"after epoch {epoch}")
        record = {"epoch": epoch, "loss": loss, "lr": lr, "clamped": clamped}
        epochs_run = epoch + 1
        if has_validation and (epochs_run % config.eval_every == 0
                               or (epochs_run == config.epochs and not validated)):
            validated = True
            report = evalmod.evaluate(params, kg, fold="valid", known=known)
            record["val_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best_params = params.copy()
                best_epoch = epoch
                best_report = report
                bad_evals = 0
            else:
                bad_evals += 1
        log.append(record)
        if bad_evals > config.patience:
            break
        lr *= config.decay_rate

    if best_epoch < 0:
        best_params = params
        best_epoch = epochs_run - 1
        best_mrr = float("nan")
    return TrainResult(best_params, state, log, best_epoch,
                       float(best_mrr), best_report, epochs_run)


@dataclass(frozen=True)
class GridSpec:
    d_r: tuple = (10, 20, 30)
    d_e: tuple = (100, 200, 500, 1000)
    dropout_input: tuple = (0.2, 0.3, 0.4, 0.5)
    dropout_relation: tuple = (0.2, 0.3, 0.4, 0.5)
    dropout_combination: tuple = (0.2, 0.3, 0.4, 0.5)

    def __post_init__(self):
        for axis in fields(self):
            if not getattr(self, axis.name):
                raise ValueError(f"grid axis {axis.name} is empty")
        # Every dimension and rate axis value, checked before any cell trains.
        for d_e, d_r in itertools.zip_longest(self.d_e, self.d_r, fillvalue=1):
            TrainConfig(d_e=d_e, d_r=d_r)
        rate_axes = (getattr(self, key) for key in DropoutSpec.KEYS)
        for rates in itertools.zip_longest(*rate_axes, fillvalue=0.0):
            DropoutSpec(*rates)

    def cells(self):
        for d_r, d_e, *rates in itertools.product(*astuple(self)):
            yield {"d_r": d_r, "d_e": d_e, "dropout": DropoutSpec(*rates)}


@dataclass
class GridCell:
    config: TrainConfig
    val_mrr: float
    val_hits1: float
    best_epoch: int
    epochs_run: int


def grid_search(kg: KnowledgeGraph, grid: GridSpec, base: TrainConfig) -> list:
    """Sweep of the grid, every cell trained with the base seed.

    Tucker trains the full Cartesian product. A model without a core has no
    relation dim apart from d_e and no dropout, so it trains one cell per d_e
    value, keeping the base's other fields. Every cell is validated at least
    once, so the sweep needs a non-empty validation fold and at least one
    epoch. Returns cells sorted by validation MRR (descending), ties broken
    by hits@1 then by grid order.
    """
    if len(kg.valid) == 0 or base.epochs < 1:
        raise ValueError("grid search needs a non-empty validation fold and train.epochs >= 1")
    if "G" in models.block_names(base.model):
        configs = [replace(base, **cell) for cell in grid.cells()]
    else:
        configs = [replace(base, d_e=d_e) for d_e in grid.d_e]
    results = []
    for config in configs:
        outcome = fit(kg, config)
        results.append(GridCell(config, outcome.best_val_mrr, outcome.best_val_report.hits1,
                                outcome.best_epoch, outcome.epochs_run))
    results.sort(key=lambda c: (-c.val_mrr, -c.val_hits1))
    return results


# --- checkpoints ---

META_FILE = "meta.json"
# A block's three files: the parameters, then Adam's first and second moments.
BLOCK_PREFIXES = ("", "adam_m_", "adam_v_")


def save_checkpoint(directory: str, params, state: AdamState, config: TrainConfig,
                    epoch: int, metrics: dict | None, vocab_hashes: dict) -> None:
    blocks = params.param_blocks()
    meta = canonical_json({
        "model": config.model,
        "blocks": {name: list(arr.shape) for name, arr in blocks.items()},
        "n_entities": params.n_entities,
        "n_relations": params.n_relations,
        "config": asdict(config),
        "epoch": epoch,
        "adam_step": state.step,
        "metrics": metrics or {},
        "vocab_hash": vocab_hashes,
    })
    # meta.json goes before the first block and comes back after the last, so a
    # save cut short leaves no meta.json over a mix of old and new blocks.
    meta_path = os.path.join(directory, META_FILE)
    with contextlib.suppress(FileNotFoundError):
        os.remove(meta_path)
    for name in blocks:
        for prefix, arrays in zip(BLOCK_PREFIXES, (blocks, state.m, state.v)):
            atomic_write_bytes(os.path.join(directory, f"{prefix}{name}.bin"),
                               arrays[name].astype("<f8").tobytes())
    # Blocks another model has and this one lacks, left by an earlier run.
    stale = {name for model in models.MODELS for name in models.block_names(model)} - set(blocks)
    for name in sorted(stale):
        for prefix in BLOCK_PREFIXES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(directory, f"{prefix}{name}.bin"))
    atomic_write_text(meta_path, meta)


def _read_blocks(directory: str, prefix: str, shapes: dict) -> dict:
    """The blocks named in shapes, each from <prefix><name>.bin; a file whose
    size does not match its shape is a ConsistencyError naming it."""
    blocks = {}
    for name, shape in shapes.items():
        path = os.path.join(directory, f"{prefix}{name}.bin")
        with open(path, "rb") as fh:
            data = np.frombuffer(fh.read(), dtype="<f8")
        expected = int(np.prod(shape))
        if data.size != expected:
            raise ConsistencyError(f"{path}: expected {expected} float64 values, found {data.size}")
        blocks[name] = data.reshape(shape).copy()
    return blocks


def load_params(directory: str):
    """Returns (params, meta dict), reading meta.json and the parameter blocks
    only: what evaluation and analysis need, without the Adam moments.

    A meta.json that is not UTF-8 or not JSON is a ParseError naming its line;
    one that is not an object, or lacks a key or holds it with the wrong type,
    is a ConsistencyError naming the file and the key. 'blocks' maps each of the
    model's blocks to its shape: 2 positive integers for E and R, 3 for G,
    which must agree: G is (d_e, d_r, d_e) from E's and R's widths, and a
    baseline's R is as wide as E.
    """
    path = os.path.join(directory, META_FILE)
    with open_text(path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as err:
            raise ParseError(f"{err.msg} (column {err.colno})", err.lineno, path) from None
    if not isinstance(meta, dict):
        raise ConsistencyError(f"{path}: not a JSON object")
    model, blocks = meta.get("model"), meta.get("blocks")
    if model not in models.MODELS:
        raise ConsistencyError(f"{directory}: unknown model {model!r} in {META_FILE}")
    names = sorted(models.block_names(model))
    if not isinstance(blocks, dict) or sorted(blocks) != names:
        raise ConsistencyError(f"{path}: key 'blocks' is {blocks!r}, not an object "
                               f"keyed by the {model} blocks {names}")
    for name, shape in blocks.items():
        rank = 3 if name == "G" else 2
        if not (isinstance(shape, list) and len(shape) == rank
                and all(type(n) is int and n > 0 for n in shape)):
            raise ConsistencyError(f"{path}: key 'blocks' gives {name} the shape {shape!r}, "
                                   f"not {rank} positive integers")
    (_, d_e), (n_r, d_r) = blocks["E"], blocks["R"]
    name, shape = ("G", [d_e, d_r, d_e]) if "G" in blocks else ("R", [n_r, d_e])
    if blocks[name] != shape:
        raise ConsistencyError(f"{path}: key 'blocks' gives {name} the shape {blocks[name]!r}, "
                               f"but E {blocks['E']!r} and R {blocks['R']!r} need {shape!r}")
    for key, kind, noun in (("adam_step", int, "an integer"), ("vocab_hash", dict, "an object")):
        if not isinstance(meta.get(key), kind):
            raise ConsistencyError(f"{path}: key {key!r} is missing or not {noun}")
    return ModelParams(model, **_read_blocks(directory, "", blocks)), meta


def load_checkpoint(directory: str):
    """Returns (params, adam_state, meta dict): load_params, then the Adam
    moments of every block."""
    params, meta = load_params(directory)
    m, v = (_read_blocks(directory, prefix, meta["blocks"]) for prefix in BLOCK_PREFIXES[1:])
    return params, AdamState(m=m, v=v, step=meta["adam_step"]), meta
