"""Scoring and gradient checks: loop oracles and central finite differences."""

import functools
import itertools

import numpy as np
import pytest

from affinitykg import models
from affinitykg.models import (
    MODELS,
    DropoutSpec,
    ModelParams,
    batch_loss_and_grads,
    bce_loss,
    grad_tucker,
    init_baseline,
    init_params,
    loss_and_grads,
    predict_sigmoid,
    relation_matrix,
    sample_masks,
    score_all_tails,
    score_queries,
    score_tucker,
    smooth_labels,
)


def score_oracle(params, h, r, t):
    """Triple-loop contraction, independent of the vectorized path."""
    acc = 0.0
    E, R, G = params.E, params.R, params.G
    for p in range(G.shape[0]):
        for q in range(G.shape[1]):
            for j in range(G.shape[2]):
                acc += G[p, q, j] * E[h, p] * R[r, q] * E[t, j]
    return acc


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(5, 4, 3, 2, seed=77)
        b = init_params(5, 4, 3, 2, seed=77)
        for name, arr in a.param_blocks().items():
            np.testing.assert_array_equal(arr, b.param_blocks()[name])

    def test_ranges(self):
        p = init_params(50, 10, 8, 4, seed=0)
        assert np.all(np.abs(p.E) <= 0.1) and np.all(np.abs(p.R) <= 0.1)
        assert np.all(np.abs(p.G) <= 1.0)

    def test_embedding_mean_near_zero(self):
        p = init_params(2000, 10, 50, 4, seed=1)
        draws = p.E.ravel()
        sigma = (0.2 / np.sqrt(12)) / np.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * sigma

    def test_core_shape_enforced(self):
        with pytest.raises(ValueError):
            init_params(0, 1, 1, 1, seed=0)


class TestScoreTucker:
    def test_basis_contraction(self):
        G = np.zeros((2, 1, 2))
        G[0, 0, 0] = 1.0
        params = init_params(2, 1, 2, 1, seed=0)
        params.G[:] = G
        params.E[:] = [[1.0, 0.0], [1.0, 0.0]]
        params.R[:] = [[1.0]]
        assert score_tucker(params, 0, 0, 1) == pytest.approx(1.0)

    def test_zero_core_scores_zero(self):
        params = init_params(4, 2, 3, 2, seed=1)
        params.G[:] = 0.0
        for h in range(4):
            assert score_tucker(params, h, 0, (h + 1) % 4) == 0.0

    def test_matches_loop_oracle(self):
        params = init_params(6, 3, 4, 2, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, t = rng.integers(0, 6, size=2)
            r = int(rng.integers(0, 3))
            assert score_tucker(params, int(h), r, int(t)) == pytest.approx(
                score_oracle(params, int(h), r, int(t)), abs=1e-12
            )

    def test_id_out_of_range(self):
        params = init_params(3, 2, 2, 2, seed=0)
        with pytest.raises(IndexError):
            score_tucker(params, 3, 0, 0)


class TestScoreAllTails:
    def test_consistent_with_pointwise(self):
        params = init_params(50, 4, 8, 3, seed=5)
        for h, r in ((0, 0), (10, 3), (49, 2)):
            batched = score_all_tails(params, h, r)
            pointwise = np.array([score_tucker(params, h, r, t) for t in range(50)])
            assert np.max(np.abs(batched - pointwise)) < 1e-12

    def test_one_hot_entities_pick_core_rows(self):
        params = init_params(3, 1, 3, 1, seed=0)
        params.E[:] = np.eye(3)
        params.R[:] = [[1.0]]
        M = params.G[:, 0, :]
        scores = score_all_tails(params, 0, 0)
        np.testing.assert_allclose(scores, M[0], atol=1e-12)


class TestScoreQueries:
    @pytest.mark.parametrize("n_e,d_e", [(57, 16), (198, 32), (1187, 200)])
    @pytest.mark.parametrize("model", MODELS)
    def test_rows_equal_score_all_tails(self, model, n_e, d_e):
        params = init_params(n_e, 4, d_e, 10, seed=6, model=model)
        # Relation 1 repeats; relations interleave; one query repeats whole.
        queries = [(0, 1), (5, 1), (3, 0), (n_e - 1, 3), (5, 1), (2, 0), (7, 2), (0, 1)]
        rows = score_queries(params, *zip(*queries))
        assert rows.shape == (len(queries), n_e)
        for (h, r), row in zip(queries, rows):
            assert np.array_equal(row, score_all_tails(params, h, r))

    @pytest.mark.parametrize("n_e,d_e", [(57, 16), (198, 32), (1187, 200)])
    @pytest.mark.parametrize("model", MODELS)
    def test_rows_equal_the_written_out_scores_bit_for_bit(self, model, n_e, d_e):
        # Each model's scores written out apart from score_queries, which forms the
        # query vectors itself; ranking, SNN and heatmaps depend on these bits.
        params = init_params(n_e, 4, d_e, 10, seed=6, model=model)
        E, R, G = params.E, params.R, params.G
        queries = [(0, 1), (5, 1), (3, 0), (n_e - 1, 3), (2, 0), (7, 2)]
        for (h, r), row in zip(queries, score_queries(params, *zip(*queries))):
            if model == "tucker":
                expected = (E[h] @ np.einsum("pqj,q->pj", G, R[r]))[None] @ E.T
            elif model == "transe":
                diff = (E[h] + R[r]) - E
                expected = -np.sqrt(np.sum(diff * diff, axis=1))
            elif model == "distmult":
                expected = (E[h] * R[r])[None] @ E.T
            else:
                d = d_e // 2
                a_re, a_im, b_re, b_im = E[h, :d], E[h, d:], R[r, :d], R[r, d:]
                q = np.concatenate([a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re])
                expected = q[None] @ E.T
            assert np.array_equal(row, expected.reshape(n_e)), (h, r)


class TestDropout:
    def test_rate_zero_is_identity(self):
        params = init_params(8, 2, 4, 2, seed=2)
        rng = np.random.default_rng(0)
        assert sample_masks(DropoutSpec(), params.d_e, rng, 2) == (None, None, None)
        y = np.zeros((2, 8))
        y[0, 3] = y[1, 5] = 1.0
        draw = functools.partial(sample_masks, DropoutSpec(), params.d_e, rng)
        zero_rate = batch_loss_and_grads(params, [1, 4], [0, 1], y, draw)
        plain = batch_loss_and_grads(params, [1, 4], [0, 1], y, None)
        np.testing.assert_array_equal(zero_rate[0], plain[0])
        assert zero_rate[1].keys() == plain[1].keys()
        for name, g in zero_rate[1].items():
            np.testing.assert_array_equal(g, plain[1][name])

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(8)
        rate = 0.3
        x = np.ones(200)
        masks = sample_masks(DropoutSpec(input_rate=rate), 200, rng, 3000)
        samples = np.mean(x * masks[0], axis=1)
        sem = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 1.0) < 3 * sem

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            DropoutSpec(input_rate=1.0)


class TestSigmoidAndLoss:
    def test_sigmoid_zero_is_half(self):
        assert predict_sigmoid([0.0])[0] == 0.5

    def test_sigmoid_saturation_and_monotonicity(self):
        x = np.linspace(-30, 30, 1001)
        s = predict_sigmoid(x)
        assert np.all(np.diff(s) >= 0)
        assert s[0] < 1e-12 and s[-1] > 1 - 1e-12

    def test_sigmoid_symmetry(self):
        x = np.random.default_rng(0).normal(scale=5, size=1000)
        np.testing.assert_allclose(predict_sigmoid(x) + predict_sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_equals_the_where_form_bit_for_bit(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 745.0, -745.0]
        x = np.concatenate([edges, np.random.default_rng(3).normal(scale=20, size=4096)])
        e = np.exp(-np.abs(x))
        expected = np.where(x >= 0, 1.0, e) / (e + 1.0)
        assert np.array_equal(predict_sigmoid(x).view(np.uint64), expected.view(np.uint64))
        assert predict_sigmoid(-0.0) == 0.5 and np.isnan(predict_sigmoid(np.nan))

    def test_bce_closed_form(self):
        assert bce_loss([0.5, 0.5], [1.0, 0.0])[0] == pytest.approx(np.log(2.0))

    def test_bce_perfect_prediction_near_zero(self):
        assert bce_loss([1.0, 0.0], [1.0, 0.0])[0] < 1e-10

    def test_bce_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, size=50)
        y = (rng.random(50) < 0.3).astype(float)
        direct = -sum(
            yi * np.log(pi) + (1 - yi) * np.log(1 - pi) for pi, yi in zip(p, y)
        ) / 50
        assert bce_loss(p, y) == (pytest.approx(direct, abs=1e-12), 0)

    def test_clamp_counter(self):
        _, clamped = bce_loss([0.0, 1.0, 0.5], [0.0, 1.0, 1.0])
        assert clamped == 2

    def test_label_smoothing(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        smoothed = smooth_labels(y, 0.1)
        np.testing.assert_allclose(smoothed, 0.9 * y + 0.1 / 4)
        np.testing.assert_array_equal(smooth_labels(y, 0.0), y)


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central differences over every coordinate of every block."""
    grads = {}
    for name, arr in params.param_blocks().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn()
            flat[i] = original - step
            down = loss_fn()
            flat[i] = original
            gflat[i] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, rel_tol=1e-4, floor=1e-6):
    """Max relative error per block, with a floor absorbing fd round-off.

    Central differences of an O(1) loss at step 1e-5 carry ~1e-11 absolute
    noise, so entries below `floor` cannot be measured relatively; the floor
    keeps the check meaningful (a wrong formula still fails by orders of
    magnitude) without flagging noise.
    """
    for name, g in analytic.items():
        ref = numeric[name]
        scale = np.maximum(np.maximum(np.abs(ref), np.abs(g)), floor)
        rel = np.max(np.abs(g - ref) / scale)
        assert rel < rel_tol, f"block {name}: max relative error {rel}"


def random_labels(rng, n_e, n_pos=3):
    y = np.zeros(n_e)
    y[rng.choice(n_e, size=n_pos, replace=False)] = 1.0
    return y


class TestTuckerGradients:
    def test_matches_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = init_params(20, 6, 8, 4, seed=seed)
            h, r = int(rng.integers(20)), int(rng.integers(6))
            y = random_labels(rng, 20)
            _, grads = grad_tucker(params, h, r, y)
            numeric = finite_difference_grads(
                lambda: grad_tucker(params, h, r, y)[0], params
            )
            assert_grads_close(grads, numeric)

    def test_matches_finite_differences_with_fixed_masks(self):
        rng = np.random.default_rng(99)
        params = init_params(15, 4, 6, 3, seed=4)
        masks = sample_masks(DropoutSpec(0.5, 0.2, 0.2), params.d_e, rng, 1)
        h, r = 3, 1
        y = random_labels(rng, 15)[None]

        def masked_step():
            return batch_loss_and_grads(params, [h], [r], y, draw_masks=lambda n: masks)

        numeric = finite_difference_grads(lambda: masked_step()[0][0], params)
        assert_grads_close(masked_step()[1], numeric)

    def test_zero_core_gradient_structure(self):
        params = init_params(10, 4, 5, 3, seed=6)
        params.G[:] = 0.0
        y = np.zeros(10)
        y[4] = 1.0
        _, grads = grad_tucker(params, 2, 1, y)
        # With a zero core the query vector is zero, so the tail gradient on E
        # vanishes and only the head row could receive signal (it is zero too,
        # because B = 0). The core gradient reduces to the outer-product term.
        np.testing.assert_array_equal(grads["E"], np.zeros_like(params.E))
        delta = (predict_sigmoid(np.zeros(10)) - y) / 10
        dv = delta @ params.E
        expected_G = np.einsum("p,q,j->pqj", params.E[2], params.R[1], dv)
        np.testing.assert_allclose(grads["G"], expected_G, atol=1e-12)

    def test_untouched_relation_rows_get_zero_grad(self):
        params = init_params(12, 5, 4, 3, seed=8)
        y = random_labels(np.random.default_rng(0), 12)
        _, grads = grad_tucker(params, 1, 2, y)
        for r in range(5):
            if r != 2:
                np.testing.assert_array_equal(grads["R"][r], np.zeros(3))


class TestRelationMatrix:
    def test_identity_slices(self):
        params = init_params(3, 2, 4, 2, seed=0)
        core = np.zeros((4, 2, 4))
        core[:, 0, :] = np.eye(4)
        params.G[:] = core
        params.R[:] = [[1.0, 0.0], [0.0, 1.0]]
        np.testing.assert_allclose(relation_matrix(params, 0), np.eye(4), atol=1e-15)

    def test_reproduces_score_as_bilinear_form(self):
        params = init_params(10, 4, 6, 3, seed=12)
        rng = np.random.default_rng(2)
        for _ in range(20):
            h, t = rng.integers(0, 10, size=2)
            r = int(rng.integers(0, 4))
            M = relation_matrix(params, r)
            bilinear = float(params.E[int(h)] @ M @ params.E[int(t)])
            assert bilinear == pytest.approx(score_tucker(params, int(h), r, int(t)), abs=1e-12)

    def test_asymmetry_bound(self):
        params = init_params(5, 3, 4, 2, seed=3)
        for r in range(3):
            M = relation_matrix(params, r)
            index = np.linalg.norm(M - M.T) / np.linalg.norm(M)
            assert 0.0 <= index <= 2.0


class TestBaselines:
    def test_transe_exact_translation(self):
        params = init_baseline("transe", 2, 1, 2, seed=0)
        params.E[:] = [[0.0, 0.0], [1.0, 1.0]]
        params.R[:] = [[1.0, 1.0]]
        assert score_all_tails(params, 0, 0)[1] == pytest.approx(0.0)
        assert score_all_tails(params, 0, 0)[0] < 0.0

    def test_distmult_hand_sum(self):
        params = init_baseline("distmult", 2, 1, 2, seed=0)
        params.E[:] = [[1.0, 2.0], [1.0, 1.0]]
        params.R[:] = [[1.0, 1.0]]
        assert score_all_tails(params, 0, 0)[1] == pytest.approx(3.0)

    def test_complex_reduces_to_distmult_when_real(self):
        cx = init_baseline("complex", 3, 2, 4, seed=1)
        cx.E[:, 2:] = 0.0  # zero imaginary halves
        cx.R[:, 2:] = 0.0
        dm = init_baseline("distmult", 3, 2, 2, seed=1)
        dm.E[:] = cx.E[:, :2]
        dm.R[:] = cx.R[:, :2]
        for h in range(3):
            for t in range(3):
                assert score_all_tails(cx, h, 0)[t] == pytest.approx(
                    score_all_tails(dm, h, 0)[t], abs=1e-12
                )

    def test_distmult_symmetric_in_head_tail(self):
        params = init_baseline("distmult", 8, 3, 5, seed=2)
        rng = np.random.default_rng(1)
        for _ in range(30):
            h, t = rng.integers(0, 8, size=2)
            r = int(rng.integers(0, 3))
            assert score_all_tails(params, int(h), r)[int(t)] == pytest.approx(
                score_all_tails(params, int(t), r)[int(h)], abs=1e-12
            )

    @pytest.mark.parametrize("variant", ["transe", "distmult", "complex"])
    def test_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(3)
        params = init_baseline(variant, 12, 4, 6, seed=5)
        h, r = 2, 1
        y = random_labels(rng, 12)
        _, grads = loss_and_grads(params, h, r, y)
        numeric = finite_difference_grads(
            lambda: loss_and_grads(params, h, r, y)[0], params
        )
        assert_grads_close(grads, numeric)

    def test_score_all_tails_consistent(self):
        for variant in ("transe", "distmult", "complex"):
            params = init_baseline(variant, 9, 2, 4, seed=7)
            scores = score_all_tails(params, 3, 1)
            for t in range(9):
                expected = baseline_oracle(variant, params, 3, 1, t)
                assert scores[t] == pytest.approx(expected, abs=1e-12)

    def test_complex_oracle_sees_imaginary_parts(self):
        # A purely imaginary relation rotates the head by 90 degrees: (a i)(b i) = -ab.
        params = init_baseline("complex", 2, 1, 2, seed=0)
        params.E[:] = [[0.0, 1.0], [-1.0, 0.0]]
        params.R[:] = [[0.0, 1.0]]
        assert baseline_oracle("complex", params, 0, 0, 1) == pytest.approx(1.0)
        assert score_all_tails(params, 0, 0)[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", ["transe", "distmult", "complex"])
    def test_gradients_carry_no_core(self, variant):
        params = init_baseline(variant, 6, 2, 4, seed=1)
        _, grads = loss_and_grads(params, 0, 1, random_labels(np.random.default_rng(2), 6))
        assert sorted(grads) == ["E", "R"]
        assert params.G is None and sorted(params.param_blocks()) == ["E", "R"]


def baseline_oracle(variant, params, h, r, t):
    """Per-tail loops with Python floats and complex numbers, no numpy kernels."""
    e_h, w_r, e_t = (list(map(float, row)) for row in (params.E[h], params.R[r], params.E[t]))
    if variant == "transe":
        return -sum((a + b - c) ** 2 for a, b, c in zip(e_h, w_r, e_t)) ** 0.5
    if variant == "distmult":
        return sum(a * b * c for a, b, c in zip(e_h, w_r, e_t))
    d = len(e_h) // 2

    def cx(row):
        return [complex(row[k], row[d + k]) for k in range(d)]

    return sum(a * b * c.conjugate() for a, b, c in zip(cx(e_h), cx(w_r), cx(e_t))).real


class TestModelParams:
    def test_core_required_for_tucker_only(self):
        E, R = np.zeros((3, 2)), np.zeros((2, 2))
        with pytest.raises(ValueError):
            ModelParams("tucker", E, R)
        with pytest.raises(ValueError):
            ModelParams("transe", E, R, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            ModelParams("rescal", E, R)

    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            ModelParams("tucker", np.zeros((3, 2)), np.zeros((2, 1)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            ModelParams("distmult", np.zeros((3, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ModelParams("complex", np.zeros((3, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("model", ["tucker", "transe", "distmult", "complex"])
    def test_copy_is_independent(self, model):
        params = init_params(5, 2, 4, 3, seed=0, model=model)
        twin = params.copy()
        assert twin.model == model and twin.param_blocks().keys() == params.param_blocks().keys()
        for name, arr in twin.param_blocks().items():
            np.testing.assert_array_equal(arr, params.param_blocks()[name])
            arr += 1.0
            assert not np.array_equal(arr, params.param_blocks()[name])

    def test_init_baseline_matches_init_params(self):
        a = init_baseline("transe", 7, 3, 4, seed=11)
        b = init_params(7, 3, 4, 99, seed=11, model="transe")
        for name, arr in a.param_blocks().items():
            np.testing.assert_array_equal(arr, b.param_blocks()[name])


def per_query_reference(params, h, r, y, masks=None):
    """One query's loss and dense gradients, written out directly per model.

    Independent of the batched head: the relation matrix is an einsum, the
    TransE tail gradient uses explicit unit vectors, and ComplEx uses numpy
    complex arithmetic.
    """
    E, R, n_e = params.E, params.R, params.n_entities
    grads = {name: np.zeros_like(arr) for name, arr in params.param_blocks().items()}
    if params.model == "tucker":
        m1, m2, m3 = masks if masks is not None else (1.0, 1.0, 1.0)
        a = E[h] * m1
        B = np.einsum("pqj,q->pj", params.G, R[r]) * m2
        q = (a @ B) * m3
    elif params.model == "transe":
        q = E[h] + R[r]
    elif params.model == "distmult":
        q = E[h] * R[r]
    else:
        d = params.d_e // 2
        e_c, w_c = E[h, :d] + 1j * E[h, d:], R[r, :d] + 1j * R[r, d:]
        q_c = e_c * w_c
        q = np.concatenate([q_c.real, q_c.imag])
    if params.model == "transe":
        dist = np.linalg.norm(q - E, axis=1)
        logits = -dist
    else:
        logits = E @ q
    p = 1.0 / (1.0 + np.exp(-logits))
    loss = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    delta = (p - y) / n_e
    if params.model == "transe":
        tail = delta[:, None] * (q - E) / dist[:, None]
        dq = -tail.sum(axis=0)
    else:
        tail = np.outer(delta, q)
        dq = delta @ E
    grads["E"] += tail
    if params.model == "tucker":
        du = dq * m3
        dM = np.outer(a, du) * m2
        grads["E"][h] += (B @ du) * m1
        grads["R"][r] += np.einsum("pqj,pj->q", params.G, dM)
        grads["G"] += np.einsum("pj,q->pqj", dM, R[r])
    elif params.model == "transe":
        grads["E"][h] += dq
        grads["R"][r] += dq
    elif params.model == "distmult":
        grads["E"][h] += dq * R[r]
        grads["R"][r] += dq * E[h]
    else:
        dq_c = dq[:d] + 1j * dq[d:]
        for block, row, other in (("E", h, w_c), ("R", r, e_c)):
            g = dq_c * np.conj(other)
            grads[block][row] += np.concatenate([g.real, g.imag])
    return loss, grads


# Repeated heads, repeated relations and one repeated (head, relation) pair.
BATCH_HEADS = [3, 3, 5, 0, 3, 7, 5]
BATCH_RELATIONS = [1, 1, 2, 1, 0, 2, 0]


def batch_case(model, seed=0):
    """Parameters, a labelled batch and (for Tucker) its stacked dropout masks."""
    rng = np.random.default_rng(seed)
    params = init_params(9, 3, 6, 4, seed=seed, model=model)
    Y = np.stack([random_labels(rng, 9, n_pos=2) for _ in BATCH_HEADS])
    masks = (sample_masks(DropoutSpec(0.5, 0.2, 0.2), params.d_e, rng, len(BATCH_HEADS))
             if model == "tucker" else None)
    return params, Y, masks


def query_masks(masks, rows):
    """The masks of the queries in `rows` (an index or a slice) of a stack."""
    return tuple(m[rows] for m in masks) if masks is not None else None


def run_batch(params, hs, rs, Y, masks):
    """batch_loss_and_grads, its draw_masks handing out the next n stacked masks."""
    drawn = 0

    def draw(n):
        nonlocal drawn
        drawn += n
        return query_masks(masks, slice(drawn - n, drawn))

    return batch_loss_and_grads(params, hs, rs, Y, draw if masks is not None else None)


class TestBatchedHead:
    @pytest.mark.parametrize("model", ["tucker", "transe", "distmult", "complex"])
    def test_matches_per_query_reference(self, model):
        params, Y, masks = batch_case(model)
        losses, grads, _ = run_batch(params, BATCH_HEADS, BATCH_RELATIONS, Y, masks)
        ref_loss = 0.0
        ref = {name: np.zeros_like(arr) for name, arr in params.param_blocks().items()}
        for i, (h, r) in enumerate(zip(BATCH_HEADS, BATCH_RELATIONS)):
            loss, g = per_query_reference(params, h, r, Y[i], query_masks(masks, i))
            assert losses[i] == pytest.approx(loss, rel=1e-12)
            ref_loss += loss
            for name in ref:
                ref[name] += g[name]
        assert losses.sum() == pytest.approx(ref_loss, rel=1e-12)
        assert grads.keys() == ref.keys()
        for name, g in grads.items():
            rel = np.max(np.abs(g - ref[name])) / np.max(np.abs(ref[name]))
            assert rel <= 1e-12, f"block {name}: relative error {rel}"

    @pytest.mark.parametrize("model", ["tucker", "transe", "distmult", "complex"])
    def test_matches_finite_differences_with_a_repeated_head(self, model):
        params, Y, masks = batch_case(model, seed=1)
        hs, rs = [2, 2, 4, 2, 1], [0, 1, 1, 0, 2]
        Y, masks = Y[:5], query_masks(masks, slice(5))
        _, grads, _ = run_batch(params, hs, rs, Y, masks)
        numeric = finite_difference_grads(
            lambda: run_batch(params, hs, rs, Y, masks)[0].sum(), params)
        assert_grads_close(grads, numeric)

    def test_one_query_case_is_loss_and_grads(self):
        params, Y, _ = batch_case("tucker")
        losses, grads, _ = run_batch(params, BATCH_HEADS[:1], BATCH_RELATIONS[:1], Y[:1], None)
        loss, single = loss_and_grads(params, BATCH_HEADS[0], BATCH_RELATIONS[0], Y[0])
        assert loss == losses[0]
        for name, g in grads.items():
            np.testing.assert_array_equal(g, single[name])

    def test_bad_batch_shapes_rejected(self):
        params, Y, _ = batch_case("distmult")
        with pytest.raises(ValueError):
            batch_loss_and_grads(params, [0, 1], [0], Y[:2])
        with pytest.raises(ValueError):
            batch_loss_and_grads(params, [0, 1], [0, 1], Y[:3])
        with pytest.raises(IndexError):
            batch_loss_and_grads(params, [0, 9], [0, 1], Y[:2])


def tucker_batch_oracle(params, hs, rs, head, draw_masks):
    """Tucker's part of a batch as it was written before it went by chunks:
    one query at a time, each drawing its own masks, with plain 2-D products."""
    rels, slot = np.unique(rs, return_inverse=True)
    M = np.matmul(params.R[rels], params.G)
    S = np.zeros_like(M)
    dM = np.empty((params.d_e, params.d_e))
    d_head = np.empty((len(hs), params.d_e))
    for i, (h, k) in enumerate(zip(hs, slot)):
        m1, m2, m3 = (None if m is None else m[0] for m in draw_masks(1))
        a = params.E[h] if m1 is None else params.E[h] * m1
        B = M[:, k] if m2 is None else M[:, k] * m2
        q = a @ B
        if m3 is not None:
            q *= m3
        dv = head(slice(i, i + 1), q[None])[0]
        du = dv if m3 is None else dv * m3
        np.outer(a, du, out=dM)
        if m2 is not None:
            dM *= m2
        S[:, k] += dM
        da = B @ du
        d_head[i] = da if m1 is None else da * m1
    M = B = None
    d_rel = np.matmul(params.G, S.transpose(0, 2, 1)).sum(axis=0).T
    return d_head, rels, d_rel, np.matmul(params.R[rels].T, S)


class TestTranseLogits:
    @pytest.mark.parametrize("n_queries", [1, 4, 5, 6, 11, 128])
    def test_chunks_match_one_query_at_a_time_bit_for_bit(self, n_queries):
        params = init_baseline("transe", 200, 3, 32, seed=1)
        assert models.TRANSE_CHUNK_BYTES // params.E.nbytes == 5  # queries per chunk
        Q = np.random.default_rng(n_queries).uniform(-0.2, 0.2, size=(n_queries, 32))
        expected = np.empty((n_queries, params.n_entities))
        for q, row in zip(Q, expected):
            diff = q - params.E
            row[:] = -np.sqrt(np.sum(diff * diff, axis=1))
        assert np.array_equal(models._logits(params, Q), expected)


class TestChunkedTucker:
    """The chunked Tucker batch against its per-query oracle, bit for bit."""

    @pytest.mark.parametrize("on", list(itertools.product((False, True), repeat=3)),
                             ids=lambda on: "".join("mM"[bit] for bit in on))
    @pytest.mark.parametrize("d_e,size", [
        # A chunk holds 16 queries at d_e=32 and one at d_e=200.
        (32, 1), (32, 5), (32, 16), (32, 77), (200, 1), (200, 3)])
    def test_matches_per_query_oracle(self, monkeypatch, on, d_e, size):
        assert models.chunk_size(d_e) == {32: 16, 200: 1}[d_e]
        spec = DropoutSpec(*(rate if bit else 0.0 for rate, bit in zip((0.5, 0.2, 0.2), on)))
        rng = np.random.default_rng(d_e + size)
        params = init_params(40, 5, d_e, 4, seed=size)
        hs, rs = rng.integers(40, size=size), rng.integers(5, size=size)
        Y = (rng.random((size, 40)) < 0.1).astype(float)

        def run():
            draws = np.random.default_rng(7)
            out = batch_loss_and_grads(params, hs, rs, Y,
                                       functools.partial(sample_masks, spec, d_e, draws))
            return out, draws.bit_generator.state

        (losses, grads, clamped), state = run()
        monkeypatch.setattr(models, "_tucker_batch", tucker_batch_oracle)
        monkeypatch.setattr(models, "_rowwise", np.matmul)
        (ref_losses, ref_grads, ref_clamped), ref_state = run()
        assert np.array_equal(losses, ref_losses) and clamped == ref_clamped
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), name
        assert state == ref_state
