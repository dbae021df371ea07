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
for TransE, in chunks of queries sized by TRANSE_CHUNK_BYTES), the loss, the
tail gradient and the scatter are shared.

Inference goes through score_queries, which scores a block of (h, r) queries
at once, without dropout: every row has the bits of its query scored alone,
and Tucker contracts each relation matrix once per call (score_all_tails is
its one-query case).

Training scores a batch of queries at once (batch_loss_and_grads, of which
loss_and_grads is the one-query case): the tail gradient of the whole batch
is one GEMM, head and relation rows are scattered with np.add.at, and Tucker
contracts each relation matrix once per batch and sums dL/dM per relation,
so its relation-row and core gradients are one batched matmul each. Tucker
goes through a batch in chunks of queries sized by CHUNK_BYTES.

Dropout masks apply only inside batch_loss_and_grads, through its
draw_masks argument: a trainer always hands over its mask sampler (or a
feed that hands out views of masks drawn ahead), and only Tucker's chunk
loop calls it, once per chunk, at three sites with inverted
scaling, so inference needs no rescaling: on the head entity row, on the
relation-transformed core matrix, and on the combined query vector. A
query's sampled (entity, relation_core, combination) masks are reused
verbatim by its forward and backward passes. Every other function here, and
so every evaluation, explanation and export, scores without dropout.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from affinitykg.tensor_ops import require_finite


@dataclass(frozen=True)
class DropoutSpec:
    input_rate: float = 0.0
    after_relation_rate: float = 0.0
    after_combination_rate: float = 0.0

    # The train.* and grid.* config keys that set each rate, in field order.
    KEYS = ("dropout_input", "dropout_relation", "dropout_combination")

    def __post_init__(self):
        for key, (name, rate) in zip(self.KEYS, self.rates().items()):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{key} ({name}) must lie in [0, 1), got {rate}")

    def rates(self) -> dict:
        return asdict(self)


def _mask_sites(spec: DropoutSpec, d_e: int) -> tuple:
    return ((spec.input_rate, (d_e,)), (spec.after_relation_rate, (d_e, d_e)),
            (spec.after_combination_rate, (d_e,)))


def mask_width(spec: DropoutSpec, d_e: int) -> int:
    """Doubles sample_masks draws per query; 0 when every rate is 0."""
    return sum(math.prod(shape) for rate, shape in _mask_sites(spec, d_e) if rate > 0.0)


def sample_masks(spec: DropoutSpec, d_e: int, rng: np.random.Generator, n: int,
                 out: np.ndarray | None = None) -> tuple:
    """Inverted-scaling (entity, relation_core, combination) masks of the next n
    queries, stacked; None means pass-through. One draw holds a row per query
    with its masks in that order: the stream of drawing query by query. Given
    a C-contiguous (n, mask_width) float64 out, the draw fills it in place and
    the masks are views of it."""
    keep = rng.random((n, mask_width(spec, d_e)), out=out)
    masks, start = [], 0
    for rate, shape in _mask_sites(spec, d_e):
        if rate <= 0.0:
            masks.append(None)
            continue
        mask = keep[:, start:start + math.prod(shape)]
        start += mask.shape[1]
        np.greater_equal(mask, rate, out=mask)
        mask *= 1.0 / (1.0 - rate)
        masks.append(mask.reshape(n, *shape))
    return tuple(masks)


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

# Bytes of each (C, n_e, d_e) TransE difference temporary: 5 queries at 200 entities and
# d_e=32, and one where E alone is larger. On a 2-vCPU VM the logits of a 128-query batch
# took 1.57-1.58 ms at 4-10 queries per chunk, 1.87 ms at 2 and 2.37 ms query by query.
TRANSE_CHUNK_BYTES = 256 * 1024


def _logits(params: ModelParams, Q: np.ndarray, matmul=np.matmul) -> np.ndarray:
    """Logits of every entity as the tail, one row per query vector in Q."""
    if params.model != "transe":
        return matmul(Q, params.E.T)
    # Each row sums its squared differences as it would alone, so chunks do not move a bit.
    out = np.empty((len(Q), params.n_entities))
    chunk = max(1, TRANSE_CHUNK_BYTES // params.E.nbytes)
    for start in range(0, len(Q), chunk):
        rows = out[start:start + chunk]
        diff = Q[start:start + chunk, None, :] - params.E
        diff *= diff
        np.sqrt(np.sum(diff, axis=2, out=rows), out=rows)
    return np.negative(out, out=out)


def score_queries(params: ModelParams, heads, rels, matrices: dict | None = None) -> np.ndarray:
    """Logits of every entity as the tail, without dropout: an (n, n_entities)
    array with row i for the query (heads[i], rels[i]).

    Each row takes the BLAS calls of its query scored alone, through _rowwise
    as in training, so a row's bits do not depend on the others. Tucker
    groups the queries by relation and contracts each relation matrix once
    per call; a caller scoring in blocks hands every call one dict
    `matrices` (relation id -> matrix) to contract each once in all.
    """
    heads = np.asarray(heads, dtype=np.int64)
    rels = np.asarray(rels, dtype=np.int64)
    if heads.ndim != 1 or rels.shape != heads.shape:
        raise ValueError("need one relation per head")
    if heads.size and (min(heads.min(), rels.min()) < 0 or heads.max() >= params.n_entities
                       or rels.max() >= params.n_relations):
        raise IndexError("entity or relation id out of range")
    if params.G is None:
        Q = _BASELINES[params.model][0](params.E[heads], params.R[rels])
    else:
        matrices = {} if matrices is None else matrices
        Q = np.empty((heads.size, params.d_e))
        for r in np.unique(rels).tolist():
            if r not in matrices:
                matrices[r] = relation_matrix(params, r)
            rows = np.flatnonzero(rels == r)
            Q[rows] = _rowwise(params.E[heads[rows]], matrices[r])
    return _logits(params, Q, _rowwise)


def score_all_tails(params: ModelParams, h: int, r: int) -> np.ndarray:
    """Logits of (h, r, t) for every entity t."""
    return score_queries(params, [h], [r])[0]


def score_tucker(params: ModelParams, h: int, r: int, t: int) -> float:
    if not 0 <= t < params.n_entities:
        raise IndexError("entity id out of range")
    return float(score_all_tails(params, h, r)[t])


def predict_sigmoid(logits) -> np.ndarray:
    """Numerically stable logistic sigmoid: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    x = np.asarray(logits, dtype=np.float64)
    e = np.exp(-np.abs(x))
    # The numerator, 1 for x >= 0 and e below, is max(x >= 0, e) since 0 <= e <= 1, and
    # np.maximum passes a NaN on. np.where took 4x as long on a 128 x 1200 block.
    p = np.greater_equal(x, 0.0, out=np.empty_like(x))
    np.maximum(p, e, out=p)
    e += 1.0
    p /= e
    return p


BCE_EPS = 1e-12


def bce_loss(p, y) -> tuple:
    """Mean binary cross-entropy over the candidate (last) axis, and the
    number of probabilities clamped.

    The loss is a float for one vector and one loss per row for a stack of
    them. Probabilities at exactly 0 or 1 are clamped to [eps, 1-eps], so a
    saturated sigmoid cannot produce an infinite loss.
    """
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if p.shape != y.shape:
        raise ValueError("probability and label arrays must have the same shape")
    clamped = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    n_clamped = int(np.count_nonzero(clamped != p))
    # y log(c) + (1 - y) log(1 - c), with as few temporaries as a batch needs
    loss = np.log(clamped)
    loss *= y
    np.log(np.subtract(1.0, clamped, out=clamped), out=clamped)
    clamped *= 1.0 - y
    loss += clamped
    loss = -np.mean(loss, axis=-1)
    return (float(loss) if loss.ndim == 0 else loss), n_clamped


def smooth_labels(y: np.ndarray, label_smoothing: float) -> np.ndarray:
    if label_smoothing <= 0.0:
        return y
    return (1.0 - label_smoothing) * y + label_smoothing / y.shape[-1]


# Bytes of each (C, d_e, d_e) temporary of a chunk of C Tucker queries (16 at d_e=32, one
# from d_e=91 up). On a 2-vCPU Skylake-X VM, batches at d_e=32 and 64 ran as fast at 128 KB
# as at 256 KB and 4-20% slower at 64 KB; 256 KB raised peak memory by 0.6 MB more.
CHUNK_BYTES = 128 * 1024


def chunk_size(d_e: int) -> int:
    """Queries per chunk of a Tucker batch at entity dim d_e."""
    return max(1, CHUNK_BYTES // (8 * d_e * d_e))


def _rowwise(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row i of X times B (or B[i]) as its own vector-matrix product, as if alone."""
    return np.matmul(X[:, None, :], B)[:, 0, :]


def _masked(x: np.ndarray, mask) -> np.ndarray:
    """x times a dropout mask, in place; a None mask passes x through."""
    if mask is not None:
        x *= mask
    return x


def _tucker_batch(params: ModelParams, hs: np.ndarray, rs: np.ndarray, head, draw_masks):
    """Tucker's part of a batch, in chunks of queries sized by CHUNK_BYTES:
    returns (head-row gradients, relation ids, their gradient rows, core
    gradient), with the bits of going through the queries one at a time.

    Query i uses relation matrix Mt[slot[i]], contracted once per batch, and
    St[k] sums dL/dM of relation k in query order, so the relation-row and
    core gradients are one batched matmul each. A chunk's dL/dM is one
    einsum outer product, a single product per element as in np.outer; it
    took 24 against 47 us per query at d_e=200 for the broadcast multiply.
    Peak resident memory measured higher when either (n_rel, d_e, d_e)
    stack outlived its use.
    """
    rels, slot = np.unique(rs, return_inverse=True)
    Mt = np.empty((len(rels), params.d_e, params.d_e))
    np.matmul(params.R[rels], params.G, out=Mt.transpose(1, 0, 2))
    St = np.zeros_like(Mt)
    d_head = np.empty((len(hs), params.d_e))
    chunk = chunk_size(params.d_e)
    for start in range(0, len(hs), chunk):
        rows = slice(start, start + chunk)
        k = slot[rows]
        m1, m2, m3 = draw_masks(len(k)) if draw_masks is not None else (None, None, None)
        a = _masked(params.E[hs[rows]], m1)
        B = _masked(Mt[k], m2)
        du = _masked(head(rows, _masked(_rowwise(a, B), m3)), m3)
        d_head[rows] = _masked(_rowwise(du, B.transpose(0, 2, 1)), m1)
        dM = _masked(np.einsum("ci,cj->cij", a, du, out=B), m2)  # B is spent
        for kj, dMj in zip(k, dM):
            St[kj] += dMj
    Mt = None  # drop the stack before the gradient matmuls
    d_rel = np.matmul(params.G, St.transpose(1, 2, 0)).sum(axis=0).T
    return d_head, rels, d_rel, np.matmul(params.R[rels].T, St.transpose(1, 0, 2))


def batch_loss_and_grads(params: ModelParams, hs, rs, Y, draw_masks=None):
    """Forward 1:N pass and closed-form gradients for a batch of (h, r) queries.

    Y holds one label row per query. Returns (losses, grads, clamped): the
    per-query losses, the gradients summed over the batch, keyed like
    param_blocks(), and the number of probabilities the loss clamped.
    draw_masks, when given, is called with n for the dropout masks of the
    next n queries in batch order (see sample_masks); a query's masks are
    used by its forward and backward passes and then dropped.
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
    matmul = _rowwise if params.G is not None else np.matmul
    Q = np.empty((hs.size, params.d_e))
    P = np.empty_like(Y)  # probabilities
    W = np.empty_like(Y)  # dL/dlogits; for TransE divided by the distance

    def head(rows, q):
        """dL/dq of the queries in `rows`, given their query vectors q."""
        Q[rows] = q
        logits = _logits(params, q, matmul)
        P[rows] = p = predict_sigmoid(logits)
        w = W[rows]
        np.subtract(p, Y[rows], out=w)
        w /= n_e
        if transe:
            # logit_t = -||q - e_t||: d/dq = -(q - e_t) / ||q - e_t|| = -d/de_t
            w /= np.maximum(-logits, 1e-12)
            return w @ params.E - w.sum(axis=1)[:, None] * q
        return matmul(w, params.E)

    if params.G is not None:
        d_head, rel_ids, d_rel, d_core = _tucker_batch(params, hs, rs, head, draw_masks)
    else:
        query, backward = _BASELINES[params.model]
        e_h, w_r = params.E[hs], params.R[rs]
        d_head, d_rel = backward(head(slice(None), query(e_h, w_r)), e_h, w_r)
        rel_ids, d_core = rs, None
    losses, clamped = bce_loss(P, Y)
    grad_E = W.T @ Q  # every entity as a candidate tail
    if transe:
        grad_E -= W.sum(axis=0)[:, None] * params.E
    np.add.at(grad_E, hs, d_head)  # unbuffered, so a repeated head keeps every row
    grad_R = np.zeros_like(params.R)
    np.add.at(grad_R, rel_ids, d_rel)
    # zip stops at the model's blocks, so a baseline drops the (None) core.
    return losses, dict(zip(block_names(params.model), (grad_E, grad_R, d_core))), clamped


def loss_and_grads(params: ModelParams, h: int, r: int, y):
    """One (h, r) query of batch_loss_and_grads, without dropout: returns
    (loss, grads)."""
    losses, grads, _ = batch_loss_and_grads(params, [h], [r], np.asarray(y)[None])
    return float(losses[0]), grads


grad_tucker = loss_and_grads
