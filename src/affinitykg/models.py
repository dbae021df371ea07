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

Training scores a batch of queries at once (batch_loss_and_grads, of which
loss_and_grads is the one-query case): the tail gradient of the whole batch
is one GEMM, head and relation rows are scattered with np.add.at, and Tucker
contracts each relation matrix once per batch and sums dL/dM per relation,
so its relation-row and core gradients are one batched matmul each. Only
Tucker's three dropout sites are worked through one query at a time.

Dropout applies to the Tucker query at three sites with inverted scaling, so
inference needs no rescaling: on the head entity row, on the
relation-transformed core matrix, and on the combined query vector. A sampled
(entity, relation_core, combination) mask tuple is reused verbatim by the
forward and backward passes of its query.
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


_NO_MASKS = (None, None, None)


def sample_masks(spec: DropoutSpec, d_e: int, rng: np.random.Generator) -> tuple:
    """Inverted-scaling (entity, relation_core, combination) masks, drawn in
    that order; None means pass-through."""
    def mask(rate, shape):
        if rate <= 0.0:
            return None
        keep = rng.random(shape)
        np.greater_equal(keep, rate, out=keep)
        keep *= 1.0 / (1.0 - rate)
        return keep

    return (mask(spec.input_rate, d_e),
            mask(spec.after_relation_rate, (d_e, d_e)),
            mask(spec.after_combination_rate, d_e))


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


# --- per-model query vectors ---

def _tucker_forward(e_h: np.ndarray, M: np.ndarray, masks: tuple | None):
    """Tucker query through its three dropout sites: returns (a, B, q), q = (a B) m3."""
    m1, m2, m3 = masks or _NO_MASKS
    a = e_h if m1 is None else e_h * m1
    B = M if m2 is None else M * m2
    u = a @ B
    return a, B, (u if m3 is None else u * m3)


def _complex_product(a: np.ndarray, b: np.ndarray, conj_b: bool = False) -> np.ndarray:
    """Elementwise a * b (or a * conj(b)) of [real half | imaginary half] rows."""
    d = a.shape[-1] // 2
    a_re, a_im, b_re, b_im = a[..., :d], a[..., d:], b[..., :d], b[..., d:]
    if conj_b:
        b_im = -b_im
    return np.concatenate([a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re], axis=-1)


# Each baseline's query q(e_h, w_r) and its map (dq, e_h, w_r) -> (head-row,
# relation-row) gradients; both act row-wise on stacked queries.
# ComplEx: score = Re(sum(e_h * w_r * conj(e_t))) = E q with q = e_h * w_r.
_BASELINES = {
    "transe": (np.add, lambda dq, e_h, w_r: (dq, dq)),
    "distmult": (np.multiply, lambda dq, e_h, w_r: (dq * w_r, dq * e_h)),
    "complex": (_complex_product, lambda dq, e_h, w_r: (
        _complex_product(dq, w_r, conj_b=True), _complex_product(dq, e_h, conj_b=True))),
}
MODELS = ("tucker",) + tuple(_BASELINES)


# --- shared 1:N head ---

def _query(params: ModelParams, h: int, r: int, masks: tuple | None,
           M: np.ndarray | None = None) -> np.ndarray:
    if not (0 <= h < params.n_entities and 0 <= r < params.n_relations):
        raise IndexError(f"entity {h} or relation {r} out of range")
    if params.G is not None:
        M = relation_matrix(params, r) if M is None else M
        return _tucker_forward(params.E[h], M, masks)[2]
    return _BASELINES[params.model][0](params.E[h], params.R[r])


def _logits(params: ModelParams, q: np.ndarray) -> np.ndarray:
    """Logits of every entity as the tail, for one query vector or a stack of them."""
    if q.ndim == 2:
        if params.model != "transe":
            return q @ params.E.T
        # One query at a time, so the difference temporary is never larger than E.
        out = np.empty((len(q), params.n_entities))
        for row, logits in zip(q, out):
            logits[:] = _logits(params, row)
        return out
    if params.model == "transe":
        diff = q - params.E
        return -np.sqrt(np.sum(diff * diff, axis=1))
    return params.E @ q


def score_all_tails(params: ModelParams, h: int, r: int,
                    masks: tuple | None = None,
                    M: np.ndarray | None = None) -> np.ndarray:
    """Logits of (h, r, t) for every entity t, sharing one dropout mask.

    M, when given, is relation_matrix(params, r), contracted once by a caller
    that scores many queries on r; the baselines ignore it.
    """
    return _logits(params, _query(params, h, r, masks, M))


def score_tucker(params: ModelParams, h: int, r: int, t: int,
                 masks: tuple | None = None) -> float:
    if not 0 <= t < params.n_entities:
        raise IndexError("entity id out of range")
    return float(_query(params, h, r, masks) @ params.E[t])


def predict_sigmoid(logits) -> np.ndarray:
    """Numerically stable logistic sigmoid: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    x = np.asarray(logits, dtype=np.float64)
    e = np.exp(-np.abs(x))
    p = np.where(x >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p


@dataclass
class ClampStats:
    count: int = 0


BCE_EPS = 1e-12


def bce_loss(p, y, clamp_stats: ClampStats | None = None) -> float:
    """Mean binary cross-entropy over the candidate (last) axis.

    Returns a float for one vector and one loss per row for a stack of them.
    Probabilities at exactly 0 or 1 are clamped to [eps, 1-eps] and counted,
    so a saturated sigmoid cannot produce an infinite loss.
    """
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if p.shape != y.shape:
        raise ValueError("probability and label arrays must have the same shape")
    clamped = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    if clamp_stats is not None:
        clamp_stats.count += int(np.count_nonzero(clamped != p))
    # y log(c) + (1 - y) log(1 - c), with as few temporaries as a batch needs
    loss = np.log(clamped)
    loss *= y
    np.log(np.subtract(1.0, clamped, out=clamped), out=clamped)
    clamped *= 1.0 - y
    loss += clamped
    loss = -np.mean(loss, axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def smooth_labels(y: np.ndarray, label_smoothing: float) -> np.ndarray:
    if label_smoothing <= 0.0:
        return y
    return (1.0 - label_smoothing) * y + label_smoothing / y.shape[-1]


def _tucker_batch(params: ModelParams, hs: np.ndarray, rs: np.ndarray, head, draw_masks):
    """Tucker's part of a batch: returns (head-row gradients, relation ids,
    their gradient rows, core gradient).

    Each relation matrix is contracted once per batch, and each query's dL/dM
    is summed per relation, so the relation-row and core gradients are one
    batched matmul each. Both (d_e, n_rel, d_e) stacks are freed before
    returning: the relation matrices with the loop, the sums here. Peak
    resident memory measured higher when either outlived its use.
    """
    rels, slot = np.unique(rs, return_inverse=True)
    d_head, S = _tucker_queries(params, hs, slot, np.matmul(params.R[rels], params.G),
                                head, draw_masks)
    d_rel = np.matmul(params.G, S.transpose(0, 2, 1)).sum(axis=0).T
    return d_head, rels, d_rel, np.matmul(params.R[rels].T, S)


def _tucker_queries(params: ModelParams, hs, slot, M, head, draw_masks):
    """The loop over queries that Tucker's three dropout sites need.

    Query i has head hs[i] and relation matrix M[:, slot[i]]. Returns the
    head-row gradients and S, where S[:, k] sums dL/dM over the queries on
    M[:, k].
    """
    S = np.zeros_like(M)
    dM = np.empty((params.d_e, params.d_e))
    d_head = np.empty((len(hs), params.d_e))
    for i, (h, k) in enumerate(zip(hs, slot)):
        masks = draw_masks() if draw_masks is not None else _NO_MASKS
        m1, m2, m3 = masks
        a, B, q = _tucker_forward(params.E[h], M[:, k], masks)
        dv = head(slice(i, i + 1), q[None])[0]
        du = dv if m3 is None else dv * m3
        np.outer(a, du, out=dM)
        if m2 is not None:
            dM *= m2
        S[:, k] += dM
        da = B @ du
        d_head[i] = da if m1 is None else da * m1
    return d_head, S


def batch_loss_and_grads(params: ModelParams, hs, rs, Y, draw_masks=None,
                         clamp_stats: ClampStats | None = None):
    """Forward 1:N pass and closed-form gradients for a batch of (h, r) queries.

    Y holds one label row per query. Returns (losses, grads): the per-query
    losses and the gradients summed over the batch, keyed like param_blocks().
    draw_masks, when given, is called once per query in batch order for that
    query's dropout masks, which are used by its forward and backward passes
    and then dropped.
    """
    hs = np.asarray(hs, dtype=np.int64)
    rs = np.asarray(rs, dtype=np.int64)
    Y = np.asarray(Y, dtype=np.float64)
    n_e = params.n_entities
    if hs.ndim != 1 or rs.shape != hs.shape or Y.shape != (hs.size, n_e):
        raise ValueError(f"need one relation and one label row of length {n_e} per head")
    if hs.size and (min(hs.min(), rs.min()) < 0 or hs.max() >= n_e
                    or rs.max() >= params.n_relations):
        raise IndexError("entity or relation id out of range")
    transe = params.model == "transe"
    Q = np.empty((hs.size, params.d_e))
    P = np.empty_like(Y)  # probabilities
    W = np.empty_like(Y)  # dL/dlogits; for TransE divided by the distance

    def head(rows, q):
        """dL/dq of the queries in `rows`, given their query vectors q."""
        Q[rows] = q
        logits = _logits(params, q)
        P[rows] = p = predict_sigmoid(logits)
        w = W[rows]
        np.subtract(p, Y[rows], out=w)
        w /= n_e
        if transe:
            # logit_t = -||q - e_t||: d/dq = -(q - e_t) / ||q - e_t|| = -d/de_t
            w /= np.maximum(-logits, 1e-12)
            return w @ params.E - w.sum(axis=1)[:, None] * q
        return w @ params.E

    if params.G is not None:
        d_head, rel_ids, d_rel, d_core = _tucker_batch(params, hs, rs, head, draw_masks)
    else:
        query, backward = _BASELINES[params.model]
        e_h, w_r = params.E[hs], params.R[rs]
        d_head, d_rel = backward(head(slice(None), query(e_h, w_r)), e_h, w_r)
        rel_ids, d_core = rs, None
    losses = bce_loss(P, Y, clamp_stats)
    grad_E = W.T @ Q  # every entity as a candidate tail
    if transe:
        grad_E -= W.sum(axis=0)[:, None] * params.E
    np.add.at(grad_E, hs, d_head)  # unbuffered, so a repeated head keeps every row
    grad_R = np.zeros_like(params.R)
    np.add.at(grad_R, rel_ids, d_rel)
    # zip stops at the model's blocks, so a baseline drops the (None) core.
    return losses, dict(zip(block_names(params.model), (grad_E, grad_R, d_core)))


def loss_and_grads(params: ModelParams, h: int, r: int, y,
                   masks: tuple | None = None,
                   clamp_stats: ClampStats | None = None):
    """One (h, r) query of batch_loss_and_grads: returns (loss, grads).

    Dropout masks, when given, are applied identically in the forward and
    backward passes.
    """
    losses, grads = batch_loss_and_grads(params, [h], [r], np.asarray(y)[None],
                                         None if masks is None else lambda: masks,
                                         clamp_stats)
    return float(losses[0]), grads


grad_tucker = loss_and_grads
