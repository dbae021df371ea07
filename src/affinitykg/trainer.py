"""Adam optimization, epoch orchestration, grid search, and checkpoints.

Training groups the (reciprocal-augmented) triples by (head, relation) query;
batch_size counts queries, not raw triples. Each batch goes through one
batched forward/backward (models.batch_loss_and_grads), which sums the
gradients of its queries with GEMMs in a fixed order; one Adam update is then
applied in place. A fixed seed reproduces the parameter trajectory bit for bit.

RNG discipline: fit derives one generator per epoch as
default_rng([seed, epoch]); within an epoch that stream is consumed first by
the batch shuffle, then by the per-query dropout masks, in iteration order.
Batching does not change it: each query still draws its own masks.

Checkpoint layout: a directory holding meta.json plus one raw little-endian
float64 array per parameter block (E.bin, R.bin, G.bin) and per Adam moment
(adam_m_E.bin, ...). meta.json records shapes, config, vocabulary hashes, the
epoch, and the validation metrics of the stored parameters.
"""

import itertools
import json
import os
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from affinitykg import evaluator as evalmod
from affinitykg import models
from affinitykg.errors import ConsistencyError
from affinitykg.kg import KnowledgeGraph, add_reciprocals
from affinitykg.models import (
    ClampStats,
    DropoutSpec,
    ModelParams,
    batch_loss_and_grads,
    init_params,
    sample_masks,
    smooth_labels,
)
from affinitykg.util import atomic_write_bytes, atomic_write_text, canonical_json


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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ValueError("decay_rate must lie in (0, 1]")
        if self.model not in models.MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
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
    """Collapse training triples into 1:N queries: [(h, r, tail ids), ...].

    Groups are sorted by (h, r) so iteration order never depends on input
    order; tails are sorted within each group.
    """
    grouped: dict = {}
    for h, r, t in train_triples:
        grouped.setdefault((int(h), int(r)), []).append(int(t))
    return [
        (h, r, np.array(sorted(tails), dtype=np.int64))
        for (h, r), tails in sorted(grouped.items())
    ]


def train_epoch(groups, params, state: AdamState, config: TrainConfig,
                rng: np.random.Generator, lr: float,
                clamp_stats: ClampStats | None = None) -> float:
    """One pass over the (h, r, tails) queries of group_queries, in shuffled
    batches at learning rate lr; returns the mean query loss.
    """
    if not groups:
        raise ValueError("empty training set")
    heads = np.array([h for h, _, _ in groups], dtype=np.int64)
    relations = np.array([r for _, r, _ in groups], dtype=np.int64)
    order = rng.permutation(len(groups))
    # Only a query through a core has dropout sites.
    draw_masks = None
    if params.G is not None and config.dropout.active:
        def draw_masks():
            return sample_masks(config.dropout, params.d_e, rng)
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        batch = order[start:start + config.batch_size]
        Y = np.zeros((len(batch), params.n_entities))
        for row, gi in zip(Y, batch):
            row[groups[gi][2]] = 1.0
        Y = smooth_labels(Y, config.label_smoothing)
        losses, grads = batch_loss_and_grads(params, heads[batch], relations[batch], Y,
                                             draw_masks, clamp_stats)
        for loss in losses.tolist():
            total_loss += loss
        adam_step(params, grads, state, lr,
                  config.adam_beta1, config.adam_beta2, config.adam_eps)
    return total_loss / len(groups)


@dataclass
class TrainResult:
    params: object
    adam_state: AdamState
    log: list
    best_epoch: int
    best_val_mrr: float
    best_val_report: object | None
    epochs_run: int
    clamp_stats: ClampStats


def fit(kg: KnowledgeGraph, config: TrainConfig) -> TrainResult:
    """Train on the augmented training fold with periodic validation.

    Validates every `eval_every` epochs, and after the last epoch if no
    validation has run by then. Keeps the parameters with the best validation
    MRR (filtered); stops early once `patience` consecutive evaluations fail
    to improve it. The learning rate is multiplied by decay_rate after every
    epoch. Each log record counts the probabilities the loss clamped in its
    epoch. A parameter block left with a non-finite value after an epoch is
    a RuntimeError.
    """
    aug = kg if kg.has_reciprocals else add_reciprocals(kg)
    params = init_params(aug.n_entities, aug.n_relations, config.d_e, config.d_r,
                         config.seed, config.model)
    state = AdamState.for_params(params)
    groups = group_queries(aug.train)
    clamp_stats = ClampStats()

    best_params = params.copy()
    best_epoch = -1
    best_mrr = -np.inf
    best_report = None
    bad_evals = 0
    log = []
    lr = config.learning_rate
    epochs_run = 0
    has_validation = len(kg.valid) > 0
    validated = False

    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, epoch])
        clamped_before = clamp_stats.count
        loss = train_epoch(groups, params, state, config, rng, lr, clamp_stats)
        for name, arr in params.param_blocks().items():
            if not np.isfinite(arr).all():
                raise RuntimeError(f"training diverged: {name} has non-finite values "
                                   f"after epoch {epoch}")
        record = {"epoch": epoch, "loss": loss, "lr": lr,
                  "clamped": clamp_stats.count - clamped_before}
        epochs_run = epoch + 1
        if has_validation and (epochs_run % config.eval_every == 0
                               or (epochs_run == config.epochs and not validated)):
            validated = True
            report = evalmod.evaluate(params, kg, fold="valid")
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
                       float(best_mrr), best_report, epochs_run, clamp_stats)


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
    """Full Cartesian sweep, every cell trained with the base seed.

    Every cell is validated at least once, so the sweep needs a non-empty
    validation fold and at least one epoch. Returns cells sorted by
    validation MRR (descending), ties broken by hits@1 then by grid order.
    """
    if len(kg.valid) == 0 or base.epochs < 1:
        raise ValueError("grid search needs a non-empty validation fold and train.epochs >= 1")
    results = []
    for cell in grid.cells():
        config = replace(base, d_r=cell["d_r"], d_e=cell["d_e"], dropout=cell["dropout"])
        outcome = fit(kg, config)
        results.append(GridCell(config, outcome.best_val_mrr, outcome.best_val_report.hits1,
                                outcome.best_epoch, outcome.epochs_run))
    results.sort(key=lambda c: (-c.val_mrr, -c.val_hits1))
    return results


# --- checkpoints ---

META_FILE = "meta.json"


def save_checkpoint(directory: str, params, state: AdamState, config: TrainConfig,
                    epoch: int, metrics: dict | None, vocab_hashes: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    blocks = params.param_blocks()
    meta = {
        "model": config.model,
        "blocks": {name: list(arr.shape) for name, arr in blocks.items()},
        "n_entities": params.n_entities,
        "n_relations": params.n_relations,
        "config": asdict(config),
        "epoch": epoch,
        "adam_step": state.step,
        "metrics": metrics or {},
        "vocab_hash": vocab_hashes,
    }
    atomic_write_text(os.path.join(directory, META_FILE), canonical_json(meta))
    for name, arr in blocks.items():
        atomic_write_bytes(os.path.join(directory, f"{name}.bin"),
                           arr.astype("<f8").tobytes())
        atomic_write_bytes(os.path.join(directory, f"adam_m_{name}.bin"),
                           state.m[name].astype("<f8").tobytes())
        atomic_write_bytes(os.path.join(directory, f"adam_v_{name}.bin"),
                           state.v[name].astype("<f8").tobytes())


def _read_block(directory: str, name: str, shape) -> np.ndarray:
    path = os.path.join(directory, f"{name}.bin")
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype="<f8")
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ConsistencyError(f"{path}: expected {expected} float64 values, found {data.size}")
    return data.reshape(shape).copy()


def load_checkpoint(directory: str):
    """Returns (params, adam_state, meta dict)."""
    with open(os.path.join(directory, META_FILE), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    model, blocks = meta.get("model"), meta.get("blocks") or {}
    if model not in models.MODELS:
        raise ConsistencyError(f"{directory}: unknown model {model!r} in {META_FILE}")
    if sorted(blocks) != sorted(models.block_names(model)):
        raise ConsistencyError(f"{directory}: {META_FILE} lists blocks {sorted(blocks)}, "
                               f"but {model} has {sorted(models.block_names(model))}")
    shapes = {name: tuple(shape) for name, shape in blocks.items()}
    params = ModelParams(model, **{name: _read_block(directory, name, shape)
                                   for name, shape in shapes.items()})
    state = AdamState(
        m={name: _read_block(directory, f"adam_m_{name}", shape) for name, shape in shapes.items()},
        v={name: _read_block(directory, f"adam_v_{name}", shape) for name, shape in shapes.items()},
        step=meta["adam_step"],
    )
    return params, state, meta
