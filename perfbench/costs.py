"""Computed cost of one 1:N training query, from the shapes alone.

These figures are derived, not measured. They count the multiply-accumulates
(MACs) of the contractions and outer products that affinitykg's closed-form
``loss_and_grads`` performs for one (head, relation) query, and the bytes of
the dense float64 gradient arrays it returns. Element-wise masks, the sigmoid
and the loss are left out; at these shapes they are a small share.

n_e entities, n_r relations (reciprocals included), d entity dim, k relation
dim (Tucker only; the baselines use one dim d for both).
"""

FLOAT_BYTES = 8


def train_query_macs(model: str, n_e: int, d: int, k: int) -> int:
    if model == "tucker":
        # relation matrix d*d*k; a@B, outer(a, du), B@du: 3*d*d;
        # logits, delta@E, outer(delta, v): 3*n_e*d; grad_R and grad_G: 2*d*d*k.
        return 3 * d * d * k + 3 * d * d + 3 * n_e * d
    if model == "transe":
        # distances twice (scores, then the gradient), unit-vector scatter, pull sum.
        return 4 * n_e * d
    if model in ("distmult", "complex"):
        # logits, outer-product tail gradient, delta@E.
        return 3 * n_e * d
    raise ValueError(f"unknown model {model!r}")


def grad_bytes_per_query(model: str, n_e: int, n_r: int, d: int, k: int) -> int:
    if model == "tucker":
        return FLOAT_BYTES * (n_e * d + n_r * k + d * k * d)
    if model in ("transe", "distmult", "complex"):
        return FLOAT_BYTES * (n_e * d + n_r * d)
    raise ValueError(f"unknown model {model!r}")
