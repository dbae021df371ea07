"""Scoring functions and closed-form gradients for the link predictors.

The main model scores a triple by contracting a shared core tensor with the
head entity, relation, and tail entity embedding rows:

    score(h, r, t) = sum_pqj G[p, q, j] * E[h, p] * R[r, q] * E[t, j]

Training uses 1:N scoring: one (head, relation) query is scored against every
entity at once, with a binary label vector marking the known tails. Gradients
of the mean binary cross-entropy are derived in closed form; no autodiff.

Dropout applies at three sites with inverted scaling, so inference needs no
rescaling: on the head entity row, on the relation-transformed core matrix,
and on the combined query vector before the final contraction. A sampled
DropoutMasks object is reused verbatim by the forward and backward passes.

Baselines (TransE, DistMult, ComplEx) expose the same 1:N surface and train
under the same loss; they have no dropout sites.
"""

from dataclasses import asdict, dataclass

import numpy as np

from affinitykg.tensor_ops import require_finite

BASELINE_VARIANTS = ("transe", "distmult", "complex")


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


@dataclass
class TuckerParams:
    E: np.ndarray  # (n_entities, d_e)
    R: np.ndarray  # (n_relations, d_r)
    G: np.ndarray  # (d_e, d_r, d_e) core

    def __post_init__(self):
        self.E = np.ascontiguousarray(self.E, dtype=np.float64)
        self.R = np.ascontiguousarray(self.R, dtype=np.float64)
        self.G = np.ascontiguousarray(self.G, dtype=np.float64)
        d_e, d_r = self.E.shape[1], self.R.shape[1]
        if self.G.shape != (d_e, d_r, d_e):
            raise ValueError(f"core must be ({d_e}, {d_r}, {d_e}), got {self.G.shape}")
        for name, arr in self.param_blocks().items():
            require_finite(arr, name)

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
        return {"E": self.E, "R": self.R, "G": self.G}

    def copy(self) -> "TuckerParams":
        return TuckerParams(self.E.copy(), self.R.copy(), self.G.copy())


@dataclass
class BaselineParams:
    variant: str
    E: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        if self.variant not in BASELINE_VARIANTS:
            raise ValueError(f"variant must be one of {BASELINE_VARIANTS}")
        self.E = np.ascontiguousarray(self.E, dtype=np.float64)
        self.R = np.ascontiguousarray(self.R, dtype=np.float64)
        if self.E.shape[1] != self.R.shape[1]:
            raise ValueError("entity and relation embedding dims must match")
        if self.variant == "complex" and self.E.shape[1] % 2:
            raise ValueError("complex embeddings need an even dim (real/imag halves)")
        for name, arr in self.param_blocks().items():
            require_finite(arr, name)

    @property
    def n_entities(self) -> int:
        return self.E.shape[0]

    @property
    def n_relations(self) -> int:
        return self.R.shape[0]

    def param_blocks(self) -> dict:
        return {"E": self.E, "R": self.R}

    def copy(self) -> "BaselineParams":
        return BaselineParams(self.variant, self.E.copy(), self.R.copy())


def init_params(n_e: int, n_r: int, d_e: int, d_r: int, seed: int) -> TuckerParams:
    """Uniform(-0.1, 0.1) embeddings, uniform(-1, 1) core; deterministic per seed."""
    if min(n_e, n_r, d_e, d_r) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    E = rng.uniform(-0.1, 0.1, size=(n_e, d_e))
    R = rng.uniform(-0.1, 0.1, size=(n_r, d_r))
    G = rng.uniform(-1.0, 1.0, size=(d_e, d_r, d_e))
    return TuckerParams(E, R, G)


def init_baseline(variant: str, n_e: int, n_r: int, dim: int, seed: int) -> BaselineParams:
    if min(n_e, n_r, dim) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    E = rng.uniform(-0.1, 0.1, size=(n_e, dim))
    R = rng.uniform(-0.1, 0.1, size=(n_r, dim))
    return BaselineParams(variant, E, R)


def relation_matrix(params: TuckerParams, r: int) -> np.ndarray:
    """Mode-2 contraction of the core with relation r: score(h,r,t) = e_h M_r e_t."""
    if not 0 <= r < params.n_relations:
        raise IndexError(f"relation id {r} out of range")
    return np.einsum("pqj,q->pj", params.G, params.R[r])


def _tucker_query_vector(params: TuckerParams, h: int, r: int, masks: DropoutMasks | None):
    a = params.E[h]
    if masks is not None and masks.entity is not None:
        a = a * masks.entity
    M = relation_matrix(params, r)
    if masks is not None and masks.relation_core is not None:
        M = M * masks.relation_core
    v = a @ M
    if masks is not None and masks.combination is not None:
        v = v * masks.combination
    return v


def score_tucker(params: TuckerParams, h: int, r: int, t: int,
                 masks: DropoutMasks | None = None) -> float:
    if not 0 <= h < params.n_entities or not 0 <= t < params.n_entities:
        raise IndexError("entity id out of range")
    return float(_tucker_query_vector(params, h, r, masks) @ params.E[t])


def score_all_tails(params, h: int, r: int, masks: DropoutMasks | None = None) -> np.ndarray:
    """Logits of (h, r, t) for every entity t, sharing one dropout mask."""
    if isinstance(params, BaselineParams):
        return _baseline_all_tails(params, h, r)
    if not 0 <= h < params.n_entities:
        raise IndexError("entity id out of range")
    if not 0 <= r < params.n_relations:
        raise IndexError("relation id out of range")
    v = _tucker_query_vector(params, h, r, masks)
    return params.E @ v


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


def loss_and_grads(params, h: int, r: int, y, masks: DropoutMasks | None = None,
                   clamp_stats: ClampStats | None = None):
    """Forward 1:N pass and closed-form gradients for one (h, r) query.

    Returns (loss, grads) with grads keyed like param_blocks(). Dropout masks,
    when given, are applied identically in the forward and backward passes.
    """
    if isinstance(params, BaselineParams):
        return _baseline_loss_and_grads(params, h, r, y, clamp_stats)
    return grad_tucker(params, h, r, y, masks, clamp_stats)


def grad_tucker(params: TuckerParams, h: int, r: int, y,
                masks: DropoutMasks | None = None,
                clamp_stats: ClampStats | None = None):
    y = np.asarray(y, dtype=np.float64)
    n_e = params.n_entities
    if y.shape != (n_e,):
        raise ValueError(f"label vector must have length {n_e}")

    a = params.E[h]
    m1 = masks.entity if masks is not None else None
    m2 = masks.relation_core if masks is not None else None
    m3 = masks.combination if masks is not None else None
    if m1 is not None:
        a = a * m1
    M = relation_matrix(params, r)
    B = M * m2 if m2 is not None else M
    u = a @ B
    v = u * m3 if m3 is not None else u
    logits = params.E @ v
    p = predict_sigmoid(logits)
    loss = bce_loss(p, y, clamp_stats)

    delta = (p - y) / n_e              # dL/dlogits
    dv = delta @ params.E              # dL/dv
    grad_E = np.outer(delta, v)        # every entity as a candidate tail
    du = dv * m3 if m3 is not None else dv
    dB = np.outer(a, du)
    dM = dB * m2 if m2 is not None else dB
    da = B @ du
    if m1 is not None:
        da = da * m1
    grad_E[h] += da
    grad_R = np.zeros_like(params.R)
    grad_R[r] = np.einsum("pqj,pj->q", params.G, dM)
    grad_G = np.einsum("pj,q->pqj", dM, params.R[r])
    return loss, {"E": grad_E, "R": grad_R, "G": grad_G}


# --- baselines ---

def _complex_halves(row: np.ndarray):
    d = row.shape[-1] // 2
    return row[..., :d], row[..., d:]


def score_baseline(params: BaselineParams, h: int, r: int, t: int) -> float:
    """Scalar plausibility score; higher means more plausible.

    transe: -||e_h + w_r - e_t||_2; distmult: sum(e_h * w_r * e_t);
    complex: Re(sum(e_h * w_r * conj(e_t))) over paired real/imag halves.
    """
    if not 0 <= h < params.n_entities or not 0 <= t < params.n_entities:
        raise IndexError("entity id out of range")
    if not 0 <= r < params.n_relations:
        raise IndexError("relation id out of range")
    if params.variant == "distmult":
        # Grouped (e_h * e_t) first so the score is bit-exactly symmetric in h, t.
        return float(np.sum(params.E[h] * params.E[t] * params.R[r]))
    return float(_baseline_all_tails(params, h, r)[t])


def _baseline_all_tails(params: BaselineParams, h: int, r: int) -> np.ndarray:
    if not 0 <= h < params.n_entities:
        raise IndexError("entity id out of range")
    if not 0 <= r < params.n_relations:
        raise IndexError("relation id out of range")
    e_h, w_r, E = params.E[h], params.R[r], params.E
    if params.variant == "transe":
        diff = (e_h + w_r)[None, :] - E
        return -np.sqrt(np.sum(diff * diff, axis=1))
    if params.variant == "distmult":
        return E @ (e_h * w_r)
    h_re, h_im = _complex_halves(e_h)
    r_re, r_im = _complex_halves(w_r)
    E_re, E_im = _complex_halves(E)
    hr_re = h_re * r_re - h_im * r_im
    hr_im = h_re * r_im + h_im * r_re
    return E_re @ hr_re + E_im @ hr_im


def _baseline_loss_and_grads(params: BaselineParams, h: int, r: int, y,
                             clamp_stats: ClampStats | None = None):
    y = np.asarray(y, dtype=np.float64)
    n_e = params.n_entities
    if y.shape != (n_e,):
        raise ValueError(f"label vector must have length {n_e}")
    logits = _baseline_all_tails(params, h, r)
    p = predict_sigmoid(logits)
    loss = bce_loss(p, y, clamp_stats)
    delta = (p - y) / n_e
    grad_E = np.zeros_like(params.E)
    grad_R = np.zeros_like(params.R)
    e_h, w_r, E = params.E[h], params.R[r], params.E

    if params.variant == "transe":
        diff = (e_h + w_r)[None, :] - E
        norms = np.sqrt(np.sum(diff * diff, axis=1))
        unit = diff / np.maximum(norms, 1e-12)[:, None]
        grad_E += delta[:, None] * unit          # tails
        pull = -(delta[:, None] * unit).sum(axis=0)
        grad_E[h] += pull
        grad_R[r] = pull
    elif params.variant == "distmult":
        q = e_h * w_r
        grad_E += np.outer(delta, q)
        dq = delta @ E
        grad_E[h] += dq * w_r
        grad_R[r] = dq * e_h
    else:
        d = params.E.shape[1] // 2
        h_re, h_im = _complex_halves(e_h)
        r_re, r_im = _complex_halves(w_r)
        E_re, E_im = _complex_halves(E)
        hr_re = h_re * r_re - h_im * r_im
        hr_im = h_re * r_im + h_im * r_re
        grad_E[:, :d] += np.outer(delta, hr_re)
        grad_E[:, d:] += np.outer(delta, hr_im)
        g_re = delta @ E_re
        g_im = delta @ E_im
        grad_E[h, :d] += g_re * r_re + g_im * r_im
        grad_E[h, d:] += -g_re * r_im + g_im * r_re
        grad_R[r, :d] = g_re * h_re + g_im * h_im
        grad_R[r, d:] = -g_re * h_im + g_im * h_re
    return loss, {"E": grad_E, "R": grad_R}
