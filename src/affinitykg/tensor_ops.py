"""Dense three-way tensor kernel: mode-n contraction and Tucker reconstruction.

Storage convention: plain C-contiguous float64 ``numpy`` arrays, last index
fastest. Modes are numbered 1..3 to match the product notation (x1 contracts
the first axis, x3 the last). Everything here is a pure function over its inputs.
"""

import numpy as np

MODES = (1, 2, 3)


def _as_array(x, ndim: int, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def require_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def mode_n_product(X, U, mode: int) -> np.ndarray:
    """Contract tensor X with matrix U along `mode`, replacing that axis by U's rows.

    Entry formula: (X x_m U)[..., j, ...] = sum_s X[..., s, ...] * U[j, s],
    where s runs over axis mode-1 of X.
    """
    X = _as_array(X, 3, "X")
    U = _as_array(U, 2, "U")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode}")
    axis = mode - 1
    if U.shape[1] != X.shape[axis]:
        raise ValueError(
            f"mode-{mode} product needs U.cols == X.dims[{mode}]: "
            f"{U.shape[1]} != {X.shape[axis]}"
        )
    out = np.tensordot(U, X, axes=(1, axis))
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))


def tucker_reconstruct(G, A, B, C) -> np.ndarray:
    """Dense reconstruction G x1 A x2 B x3 C with dims (A.rows, B.rows, C.rows)."""
    G = _as_array(G, 3, "G")
    A = _as_array(A, 2, "A")
    B = _as_array(B, 2, "B")
    C = _as_array(C, 2, "C")
    for factor, name, axis in ((A, "A", 0), (B, "B", 1), (C, "C", 2)):
        if factor.shape[1] != G.shape[axis]:
            raise ValueError(
                f"{name}.cols must equal core dim {axis + 1}: "
                f"{factor.shape[1]} != {G.shape[axis]}"
            )
    out = mode_n_product(G, A, 1)
    out = mode_n_product(out, B, 2)
    return mode_n_product(out, C, 3)
