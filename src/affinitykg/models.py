"""Scoring functions and closed-form gradients for the link predictors.

The main model scores a triple by contracting a shared core tensor with the
head entity, relation, and tail entity embedding rows:

    score(h, r, t) = sum_pqj G[p, q, j] * E[h, p] * R[r, q] * E[t, j]

Training uses 1:N scoring: one (head, relation) query is scored against every
entity at once, with a binary label vector marking the known tails. Gradients
of the mean binary cross-entropy are derived in closed form; no autodiff.

Every model, Tucker and the TransE/DistMult/ComplEx baselines, reduces a
query to one vector q and supplies only q and the map from dL/dq to its
head-row, relation-row and core gradients; the logits (E q, or -||q - e_t||
for TransE), the loss, the tail gradient and the scatter are shared.

Dropout applies to the Tucker query at three sites with inverted scaling, so
inference needs no rescaling: on the head entity row, on the
relation-transformed core matrix, and on the combined query vector. A sampled
DropoutMasks object is reused verbatim by the forward and backward passes.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from affinitykg.tensor_ops import require_finite


@dataclass(frozen=True)
class DropoutSpec:
    input_rate: float = 0.0
    after_relation_rate: float = 0.0
    after_combination_rate: float = 0.0

    def __post_init__(self):
        for name, rate in self.rates().items():
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {rate}")

    def rates(self) -> dict:
        return asdict(self)

    @property
    def active(self) -> bool:
        return any(rate > 0.0 for rate in self.rates().values())


@dataclass
class DropoutMasks:
    """Inverted-scaling masks, one per dropout site; None means pass-through."""

    entity: np.ndarray | None = None
    relation_core: np.ndarray | None = None
    combination: np.ndarray | None = None


def sample_masks(spec: DropoutSpec, d_e: int, rng: np.random.Generator) -> DropoutMasks:
    def mask(rate, shape):
        if rate <= 0.0:
            return None
        return (rng.random(shape) >= rate) / (1.0 - rate)

    return DropoutMasks(
        entity=mask(spec.input_rate, d_e),
        relation_core=mask(spec.after_relation_rate, (d_e, d_e)),
        combination=mask(spec.after_combination_rate, d_e),
    )


def block_names(model: str) -> tuple:
    """Parameter blocks of a model: the Tucker core G comes on top of E and R."""
    return ("E", "R", "G") if model == "tucker" else ("E", "R")


@dataclass
class ModelParams:
    model: str
    E: np.ndarray  # (n_entities, d_e)
    R: np.ndarray  # (n_relations, d_r); d_r == d_e for the baselines
    G: np.ndarray | None = None  # (d_e, d_r, d_e) Tucker core

    def __post_init__(self):
        if self.model not in MODELS or (self.G is None) == ("G" in block_names(self.model)):
            raise ValueError(f"model {self.model!r}: need one of {MODELS}; a core G iff tucker")
        for name, arr in self.param_blocks().items():
            setattr(self, name, require_finite(np.ascontiguousarray(arr, dtype=np.float64), name))
        core_shape = (self.d_e, self.d_r, self.d_e)
        if self.G is not None and self.G.shape != core_shape:
            raise ValueError(f"core must be {core_shape}, got {self.G.shape}")
        if self.G is None and self.d_e != self.d_r:
            raise ValueError("entity and relation embedding dims must match")
        if self.model == "complex" and self.d_e % 2:
            raise ValueError("complex embeddings need an even dim (real/imag halves)")

    @property
    def n_entities(self) -> int:
        return self.E.shape[0]

    @property
    def n_relations(self) -> int:
        return self.R.shape[0]

    @property
    def d_e(self) -> int:
        return self.E.shape[1]

    @property
    def d_r(self) -> int:
        return self.R.shape[1]

    def param_blocks(self) -> dict:
        return {name: getattr(self, name) for name in block_names(self.model)}

    def copy(self) -> "ModelParams":
        return replace(self, **{name: arr.copy() for name, arr in self.param_blocks().items()})


def init_params(n_e: int, n_r: int, d_e: int, d_r: int, seed: int,
                model: str = "tucker") -> ModelParams:
    """Uniform(-0.1, 0.1) embeddings, uniform(-1, 1) core; deterministic per seed.

    Without a core, relations embed in the entity dim and d_r is ignored.
    """
    has_core = "G" in block_names(model)
    d_r = d_r if has_core else d_e
    if min(n_e, n_r, d_e, d_r) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    E = rng.uniform(-0.1, 0.1, size=(n_e, d_e))
    R = rng.uniform(-0.1, 0.1, size=(n_r, d_r))
    G = rng.uniform(-1.0, 1.0, size=(d_e, d_r, d_e)) if has_core else None
    return ModelParams(model, E, R, G)


def init_baseline(variant: str, n_e: int, n_r: int, dim: int, seed: int) -> ModelParams:
    return init_params(n_e, n_r, dim, dim, seed, model=variant)


def relation_matrix(params: ModelParams, r: int) -> np.ndarray:
    """Mode-2 contraction of the core with relation r: score(h,r,t) = e_h M_r e_t."""
    if not 0 <= r < params.n_relations:
        raise IndexError(f"relation id {r} out of range")
    return np.einsum("pqj,q->pj", params.G, params.R[r])


# --- per-model query vectors: each returns (q, backward), and backward(dq) maps
# dL/dq to the head-row, relation-row and core (None without a core) gradients.

def _tucker_query(params: ModelParams, h: int, r: int, masks: DropoutMasks | None):
    m1, m2, m3 = ((masks.entity, masks.relation_core, masks.combination)
                  if masks is not None else (None, None, None))
    a = params.E[h] if m1 is None else params.E[h] * m1
    M = relation_matrix(params, r)
    B = M if m2 is None else M * m2
    u = a @ B
    v = u if m3 is None else u * m3

    def backward(dv):
        du = dv if m3 is None else dv * m3
        dB = np.outer(a, du)
        dM = dB if m2 is None else dB * m2
        da = B @ du
        if m1 is not None:
            da = da * m1
        return (da, np.einsum("pqj,pj->q", params.G, dM),
                np.einsum("pj,q->pqj", dM, params.R[r]))

    return v, backward


def _transe_query(params: ModelParams, h: int, r: int, masks):
    return params.E[h] + params.R[r], lambda dq: (dq, dq, None)


def _distmult_query(params: ModelParams, h: int, r: int, masks):
    e_h, w_r = params.E[h], params.R[r]
    return e_h * w_r, lambda dq: (dq * w_r, dq * e_h, None)


def _complex_product(a: np.ndarray, b: np.ndarray, conj_b: bool = False) -> np.ndarray:
    """Elementwise a * b (or a * conj(b)) of [real half | imaginary half] vectors."""
    d = a.shape[0] // 2
    a_re, a_im, b_re, b_im = a[:d], a[d:], b[:d], b[d:]
    if conj_b:
        b_im = -b_im
    return np.concatenate([a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re])


def _complex_query(params: ModelParams, h: int, r: int, masks):
    # score = Re(sum(e_h * w_r * conj(e_t))) = E q with q = e_h * w_r.
    e_h, w_r = params.E[h], params.R[r]
    return _complex_product(e_h, w_r), lambda dq: (
        _complex_product(dq, w_r, conj_b=True), _complex_product(dq, e_h, conj_b=True), None)


_QUERIES = {"tucker": _tucker_query, "transe": _transe_query,
            "distmult": _distmult_query, "complex": _complex_query}
MODELS = tuple(_QUERIES)


# --- shared 1:N head ---

def _query(params: ModelParams, h: int, r: int, masks: DropoutMasks | None):
    if not (0 <= h < params.n_entities and 0 <= r < params.n_relations):
        raise IndexError(f"entity {h} or relation {r} out of range")
    return _QUERIES[params.model](params, h, r, masks)


def _logits(params: ModelParams, q: np.ndarray) -> np.ndarray:
    if params.model == "transe":
        diff = q[None, :] - params.E
        return -np.sqrt(np.sum(diff * diff, axis=1))
    return params.E @ q


def score_all_tails(params: ModelParams, h: int, r: int,
                    masks: DropoutMasks | None = None) -> np.ndarray:
    """Logits of (h, r, t) for every entity t, sharing one dropout mask."""
    return _logits(params, _query(params, h, r, masks)[0])


def score_tucker(params: ModelParams, h: int, r: int, t: int,
                 masks: DropoutMasks | None = None) -> float:
    if not 0 <= t < params.n_entities:
        raise IndexError("entity id out of range")
    return float(_query(params, h, r, masks)[0] @ params.E[t])


def score_baseline(params: ModelParams, h: int, r: int, t: int) -> float:
    """Scalar plausibility score; higher means more plausible.

    transe: -||e_h + w_r - e_t||_2; distmult: sum(e_h * w_r * e_t);
    complex: Re(sum(e_h * w_r * conj(e_t))) over paired real/imag halves.
    """
    if not 0 <= t < params.n_entities:
        raise IndexError("entity id out of range")
    scores = score_all_tails(params, h, r)
    if params.model == "distmult":
        # Grouped (e_h * e_t) first so the score is bit-exactly symmetric in h, t.
        return float(np.sum(params.E[h] * params.E[t] * params.R[r]))
    return float(scores[t])


def predict_sigmoid(logits) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(logits, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class ClampStats:
    count: int = 0


BCE_EPS = 1e-12


def bce_loss(p, y, clamp_stats: ClampStats | None = None) -> float:
    """Mean binary cross-entropy over the candidate axis.

    Probabilities at exactly 0 or 1 are clamped to [eps, 1-eps] and counted,
    so a saturated sigmoid cannot produce an infinite loss.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("probability and label vectors must have the same length")
    clamped = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    if clamp_stats is not None:
        clamp_stats.count += int(np.count_nonzero(clamped != p))
    return float(-np.mean(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped)))


def smooth_labels(y: np.ndarray, label_smoothing: float) -> np.ndarray:
    if label_smoothing <= 0.0:
        return y
    return (1.0 - label_smoothing) * y + label_smoothing / y.shape[0]


def loss_and_grads(params: ModelParams, h: int, r: int, y,
                   masks: DropoutMasks | None = None,
                   clamp_stats: ClampStats | None = None):
    """Forward 1:N pass and closed-form gradients for one (h, r) query.

    Returns (loss, grads) with grads keyed like param_blocks(). Dropout masks,
    when given, are applied identically in the forward and backward passes.
    """
    y = np.asarray(y, dtype=np.float64)
    n_e = params.n_entities
    if y.shape != (n_e,):
        raise ValueError(f"label vector must have length {n_e}")
    q, backward = _query(params, h, r, masks)
    logits = _logits(params, q)
    p = predict_sigmoid(logits)
    loss = bce_loss(p, y, clamp_stats)

    delta = (p - y) / n_e              # dL/dlogits
    if params.model == "transe":
        # d logit_t / d e_t = (q - e_t) / ||q - e_t|| = -d logit_t / dq
        unit = (q[None, :] - params.E) / np.maximum(-logits, 1e-12)[:, None]
        grad_E = delta[:, None] * unit  # every entity as a candidate tail
        dq = -grad_E.sum(axis=0)
    else:
        grad_E = np.outer(delta, q)
        dq = delta @ params.E
    d_head, d_relation, d_core = backward(dq)
    grad_E[h] += d_head
    grad_R = np.zeros_like(params.R)
    grad_R[r] = d_relation
    # zip stops at the model's blocks, so a baseline drops the (None) core.
    return loss, dict(zip(block_names(params.model), (grad_E, grad_R, d_core)))


grad_tucker = loss_and_grads
