"""Optimizer, training loop, early stopping, grid search, checkpoints."""

import dataclasses
import functools
import json
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from affinitykg import cli, models, trainer
from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.kg import add_reciprocals, load_triples, save_kg_dir
from affinitykg.models import DropoutSpec, init_params, sample_masks
from affinitykg.synthetic import two_block_kg
from affinitykg.trainer import (
    AdamState,
    GridSpec,
    TrainConfig,
    adam_step,
    fit,
    grid_search,
    group_queries,
    load_checkpoint,
    openblas_threads,
    save_checkpoint,
    train_epoch,
)
from affinitykg.util import atomic_write_bytes


@dataclasses.dataclass
class VecParams:
    """Minimal parameter holder for optimizer-only tests."""

    x: np.ndarray

    def param_blocks(self):
        return {"x": self.x}


class TestAdamStep:
    def test_first_step_magnitude(self):
        params = VecParams(np.zeros(4))
        state = AdamState.for_params(params)
        g = np.array([3.0, -2.0, 0.5, -10.0])
        adam_step(params, {"x": g}, state, lr=0.01)
        # Bias correction makes the first update ~ lr * sign(g).
        np.testing.assert_allclose(params.x, -0.01 * np.sign(g), rtol=1e-6)

    def test_zero_gradient_keeps_params(self):
        params = VecParams(np.array([1.0, -2.0]))
        state = AdamState.for_params(params)
        m_before = {k: v.copy() for k, v in state.m.items()}
        adam_step(params, {"x": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params.x, [1.0, -2.0])
        assert state.step == 1
        np.testing.assert_array_equal(state.m["x"], m_before["x"])

    def test_quadratic_bowl_converges(self):
        params = VecParams(np.array([1.0, 1.0]))
        state = AdamState.for_params(params)
        norms = []
        for _ in range(100):
            adam_step(params, {"x": params.x.copy()}, state, lr=0.05)
            norms.append(float(np.linalg.norm(params.x)))
        assert norms[-1] < 0.1
        # Strict descent from warmup until momentum starts oscillating around
        # the optimum (first time the norm dips under 1e-2).
        floor = next(i for i, n in enumerate(norms) if n < 1e-2)
        assert floor > 10
        assert all(b < a for a, b in zip(norms[1:floor], norms[2:floor + 1]))

    def test_shape_mismatch_rejected(self):
        params = VecParams(np.zeros(3))
        state = AdamState.for_params(params)
        with pytest.raises(ValueError):
            adam_step(params, {"x": np.zeros(4)}, state, lr=0.1)

    def test_in_place_update_matches_the_formula(self):
        rng = np.random.default_rng(3)
        shape = (7, 5)
        params = VecParams(rng.normal(size=shape))
        state = AdamState.for_params(params)
        x, m, v = params.x.copy(), np.zeros(shape), np.zeros(shape)
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 31):
            # Magnitudes from 1e-8 to 1e2, both signs.
            g = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 2, size=shape)
            adam_step(params, {"x": g}, state, lr, beta1, beta2, eps)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_array_equal(params.x, x)
            np.testing.assert_array_equal(state.m["x"], m)
            np.testing.assert_array_equal(state.v["x"], v)

    def test_state_shapes_mirror_params(self):
        params = init_params(7, 4, 3, 2, seed=0)
        state = AdamState.for_params(params)
        for name, arr in params.param_blocks().items():
            assert state.m[name].shape == arr.shape
            assert state.v[name].shape == arr.shape


def tiny_kg():
    kg, _ = load_triples(["a\td1\tb"])
    return add_reciprocals(kg)


def no_dropout_config(**kw):
    defaults = dict(epochs=50, d_e=4, d_r=2, dropout=DropoutSpec(), batch_size=8,
                    seed=0, eval_every=10, patience=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


def run_epoch(kg, params, state, config, rng):
    """One train_epoch over the grouped training queries at the configured rate."""
    return train_epoch(group_queries(kg.train), params, state, config, rng,
                       config.learning_rate)


class TestTrainEpoch:
    def test_single_fact_loss_decreases(self):
        kg = tiny_kg()
        config = no_dropout_config()
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0)
        state = AdamState.for_params(params)
        losses = [
            run_epoch(kg, params, state, config, np.random.default_rng([0, epoch]))
            for epoch in range(50)
        ]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_single_fact_loss_reaches_floor(self):
        kg = tiny_kg()
        config = no_dropout_config(learning_rate=0.005)
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0)
        state = AdamState.for_params(params)
        loss = None
        for epoch in range(500):
            loss, _ = run_epoch(kg, params, state, config, np.random.default_rng([0, epoch]))
        assert loss < 1e-2

    def test_same_seed_identical_trajectory(self):
        kg = add_reciprocals(two_block_kg(seed=0, valid_size=0, test_size=0))
        config = TrainConfig(epochs=3, d_e=8, d_r=4, seed=3)
        trajectories = []
        for _ in range(2):
            params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 3)
            state = AdamState.for_params(params)
            losses = [
                run_epoch(kg, params, state, config, np.random.default_rng([3, epoch]))
                for epoch in range(3)
            ]
            trajectories.append((losses, params))
        assert trajectories[0][0] == trajectories[1][0]
        for name, arr in trajectories[0][1].param_blocks().items():
            np.testing.assert_array_equal(arr, trajectories[1][1].param_blocks()[name])

    def test_zero_lr_keeps_params_and_loss(self):
        kg = tiny_kg()
        config = no_dropout_config(learning_rate=0.0)
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0)
        before = {k: v.copy() for k, v in params.param_blocks().items()}
        state = AdamState.for_params(params)
        losses = [
            run_epoch(kg, params, state, config, np.random.default_rng([0, e]))
            for e in range(3)
        ]
        assert losses[0] == losses[1] == losses[2]
        for name, arr in params.param_blocks().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_empty_training_set_rejected(self):
        kg = dataclasses.replace(tiny_kg(), train=np.empty((0, 3), dtype=np.int64))
        config = no_dropout_config()
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0)
        state = AdamState.for_params(params)
        queries, tails = group_queries(kg.train)
        assert queries.shape == (0, 2) and tails == []
        with pytest.raises(ValueError, match="empty training set"):
            run_epoch(kg, params, state, config, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty training set"):
            fit(kg, config)

    @pytest.mark.parametrize("model,dropout,draws_masks", [
        # Only a query through a core draws masks, and a zero rate draws none,
        # so without dropout an epoch consumes only the shuffle.
        pytest.param("tucker", DropoutSpec(0.5, 0.2, 0.2), True, id="tucker"),
        pytest.param("transe", DropoutSpec(0.5, 0.2, 0.2), False, id="transe"),
        pytest.param("tucker", DropoutSpec(), False, id="tucker-no-dropout"),
    ])
    def test_rng_stream_is_shuffle_then_masks_in_iteration_order(self, model, dropout,
                                                                 draws_masks):
        kg = add_reciprocals(two_block_kg(seed=0, valid_size=0, test_size=0))
        config = TrainConfig(d_e=6, d_r=3, batch_size=16, model=model, dropout=dropout)
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0, model)
        rng = np.random.default_rng(11)
        run_epoch(kg, params, AdamState.for_params(params), config, rng)
        reference = np.random.default_rng(11)
        queries, _ = group_queries(kg.train)
        reference.permutation(len(queries))
        if draws_masks:
            for _ in queries:
                sample_masks(config.dropout, config.d_e, reference, 1)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_epoch_contracts_relation_matrices_per_batch_not_per_query(self, monkeypatch):
        def per_query_contraction(*args):
            raise AssertionError("relation_matrix called during training")

        monkeypatch.setattr(models, "relation_matrix", per_query_contraction)
        kg = add_reciprocals(two_block_kg(seed=0, valid_size=0, test_size=0))
        config = TrainConfig(d_e=6, d_r=3)
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0)
        run_epoch(kg, params, AdamState.for_params(params), config, np.random.default_rng(0))

    @pytest.mark.parametrize("model,d_e,limit_mb", [
        ("tucker", 200, 24), ("transe", 32, 2), ("distmult", 32, 2), ("complex", 32, 2)])
    def test_traced_memory_of_one_epoch(self, model, d_e, limit_mb):
        # A batch must not build a (B, d_e, d_e) mask stack or a (B, n_e, d_e)
        # TransE difference tensor; either would exceed these limits.
        kg = add_reciprocals(two_block_kg(seed=404))
        config = TrainConfig(d_e=d_e, d_r=10, model=model)
        params = init_params(kg.n_entities, kg.n_relations, d_e, 10, 0, model)
        state = AdamState.for_params(params)
        tracemalloc.start()
        try:
            run_epoch(kg, params, state, config, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6

    @pytest.mark.parametrize("d_e,rates", [
        # 16 queries per chunk, every mask site drawn.
        (32, (0.5, 0.2, 0.2)),
        # 16 per chunk, only the entity mask drawn.
        (32, (0.5, 0.0, 0.0)),
        # One query per chunk, every mask site drawn.
        (96, (0.5, 0.2, 0.2)),
        # One query per chunk, only the combination mask drawn.
        (96, (0.0, 0.0, 0.2)),
        # The boundary: the last dim with two queries per chunk, and the first with one.
        (90, (0.5, 0.2, 0.2)),
        (91, (0.5, 0.2, 0.2)),
    ])
    def test_mask_worker_matches_serial_draws(self, monkeypatch, d_e, rates):
        kg = add_reciprocals(two_block_kg(seed=0, valid_size=0, test_size=0))
        queries, tails = group_queries(kg.train)
        # 50 queries per batch: the chunks of 16 do not divide it.
        config = TrainConfig(d_e=d_e, d_r=3, batch_size=50, dropout=DropoutSpec(*rates),
                             label_smoothing=0.1)
        # Queries per chunk, and whether the worker draws the masks: only where a
        # chunk is one query does it; otherwise the training thread does.
        chunk, on_worker = {32: (16, False), 90: (2, False), 91: (1, True), 96: (1, True)}[d_e]
        assert models.chunk_size(d_e) == chunk

        def start():
            params = init_params(kg.n_entities, kg.n_relations, d_e, 3, seed=2)
            return params, AdamState.for_params(params), np.random.default_rng(5)

        # Serial reference: every chunk draws its masks on the training thread.
        params, state, rng = start()
        draw = functools.partial(sample_masks, config.dropout, d_e, rng)
        ref_losses, ref_clamped = [], 0
        order = rng.permutation(len(queries))
        for begin in range(0, len(order), config.batch_size):
            batch = order[begin:begin + config.batch_size]
            Y = np.zeros((len(batch), kg.n_entities))
            for row, i in zip(Y, batch):
                row[tails[i]] = 1.0
            losses, grads, clamped = models.batch_loss_and_grads(
                params, queries[batch, 0], queries[batch, 1],
                models.smooth_labels(Y, config.label_smoothing), draw)
            ref_losses += losses.tolist()
            ref_clamped += clamped
            adam_step(params, grads, state, config.learning_rate)
        reference = params, state, rng.bit_generator.state

        losses, drawn_on = [], set()

        def recording(*args):
            out = models.batch_loss_and_grads(*args)
            losses.extend(out[0].tolist())
            return out

        def sampler(*args):
            drawn_on.add(threading.current_thread())
            return sample_masks(*args)

        monkeypatch.setattr(trainer, "batch_loss_and_grads", recording)
        monkeypatch.setattr(trainer, "sample_masks", sampler)
        params, state, rng = start()
        mean, clamped = train_epoch((queries, tails), params, state, config, rng,
                                    config.learning_rate)
        if on_worker:
            assert drawn_on and threading.main_thread() not in drawn_on
        else:
            assert drawn_on == {threading.main_thread()}
        assert losses == ref_losses and clamped == ref_clamped
        assert mean == sum(ref_losses) / len(queries)
        ref_params, ref_state, ref_rng = reference
        for name, arr in params.param_blocks().items():
            assert np.array_equal(arr, ref_params.param_blocks()[name]), name
            assert np.array_equal(state.m[name], ref_state.m[name]), name
            assert np.array_equal(state.v[name], ref_state.v[name]), name
        assert state.step == ref_state.step
        assert rng.bit_generator.state == ref_rng

    def test_mask_feed_refuses_a_chunk_of_several_queries(self):
        # It hands out one query's masks per call; given to a chunk of two they would broadcast.
        with ThreadPoolExecutor(max_workers=1) as pool:
            take = trainer._masks_ahead(pool, lambda n, out: (out, None), 3, 4)
            first, none = take(1)
            assert first.shape == (1, 4) and none is None
            with pytest.raises(ValueError, match="one query per call, not 2"):
                take(2)

    @pytest.mark.parametrize("rates", [(0.5, 0.2, 0.2), (0.0, 0.0, 0.2)])
    def test_mask_feed_matches_one_query_draws(self, rates):
        # d_e=200 with every site drawn is the paper's setting: 6 queries per block. At
        # d_e=512 one query's masks (263 168 doubles) outgrow a buffer, so a block is one
        # query and a buffer is refilled one take after it was handed out.
        spec = DropoutSpec(*rates)
        blocks = {(0.5, 0.2, 0.2): (6, 1), (0.0, 0.0, 0.2): (1310, 512)}[rates]
        for d_e, expected_block in zip((200, 512), blocks, strict=True):
            width = models.mask_width(spec, d_e)
            block = max(1, trainer.MASK_BLOCK_BYTES // (8 * width))
            assert block == expected_block
            counts = (1, block - 1, block, 2 * block + 1) if d_e == 200 else (1, 2, 3)
            for count in counts:
                rng, reference = np.random.default_rng(7), np.random.default_rng(7)
                calls = []

                def draw(n, out):
                    calls.append(n)
                    return sample_masks(spec, d_e, rng, n, out)

                with ThreadPoolExecutor(max_workers=1) as pool:
                    take = trainer._masks_ahead(pool, draw, count, width)
                    for _ in range(count):
                        for got, want in zip(take(1), sample_masks(spec, d_e, reference, 1),
                                             strict=True):
                            assert (got is None and want is None) or (
                                got.shape == want.shape and np.array_equal(got, want))
                # One draw per block of queries, not one per query.
                assert calls == [min(block, count - start) for start in range(0, count, block)]
                assert rng.bit_generator.state == reference.bit_generator.state

    def test_mask_feed_keeps_a_querys_masks_until_the_next_take(self):
        # Blocks of 6 queries at d_e=200, and of one query at d_e=512.
        spec = DropoutSpec(0.5, 0.2, 0.2)
        for d_e, counts in ((200, (3 * 6 + 2,)), (512, (1, 2, 3))):
            width = models.mask_width(spec, d_e)
            for count in counts:
                draw = functools.partial(sample_masks, spec, d_e, np.random.default_rng(3))
                with ThreadPoolExecutor(max_workers=1) as pool:
                    take = trainer._masks_ahead(pool, draw, count, width)
                    for _ in range(count):
                        masks = take(1)
                        kept = [m.copy() for m in masks]
                        pool.submit(lambda: None).result(timeout=60)  # every fill so far is done
                        assert all(np.array_equal(m, k) for m, k in zip(masks, kept))

    def test_mask_worker_stops_and_blas_threads_return_when_a_batch_fails(self, monkeypatch):
        drawn_on = set()

        def sampler(*args):
            drawn_on.add(threading.current_thread())
            return sample_masks(*args)

        monkeypatch.setattr(trainer, "sample_masks", sampler)
        # One query per chunk at d_e=96, so the worker draws the masks.
        self.fail_third_batch(monkeypatch, "tucker", DropoutSpec(0.5, 0.2, 0.2), d_e=96)
        assert drawn_on and threading.main_thread() not in drawn_on

    @pytest.mark.parametrize("model,dropout", [
        # Every epoch holds OpenBLAS to one thread, whether or not it draws masks.
        pytest.param("tucker", DropoutSpec(), id="tucker-no-dropout"),
        pytest.param("distmult", DropoutSpec(0.5, 0.2, 0.2), id="distmult"),
    ])
    def test_epoch_without_masks_holds_one_blas_thread_until_a_batch_fails(
            self, monkeypatch, model, dropout):
        self.fail_third_batch(monkeypatch, model, dropout)

    @staticmethod
    def fail_third_batch(monkeypatch, model, dropout, d_e=8):
        """An epoch whose third batch raises: every batch saw one BLAS thread, and
        afterwards no thread is left and the OpenBLAS count is back."""
        kg = add_reciprocals(two_block_kg(seed=0, valid_size=0, test_size=0))
        config = TrainConfig(d_e=d_e, d_r=3, batch_size=16, model=model, dropout=dropout)
        params = init_params(kg.n_entities, kg.n_relations, d_e, 3, seed=0, model=model)
        control = openblas_threads()
        threads_before = threading.active_count()
        calls = []

        def failing(*args):
            calls.append(control[0]() if control else None)
            if len(calls) == 3:
                raise RuntimeError("third batch fails")
            return models.batch_loss_and_grads(*args)

        monkeypatch.setattr(trainer, "batch_loss_and_grads", failing)
        if control is not None:
            # Two threads, so a count left at one shows even on a one-core machine.
            blas_default = control[0]()
            control[1](2)
        try:
            with pytest.raises(RuntimeError, match="third batch fails"):
                run_epoch(kg, params, AdamState.for_params(params), config,
                          np.random.default_rng(0))
            blas_after = control[0]() if control else None
        finally:
            if control is not None:
                control[1](blas_default)
        assert len(calls) == 3
        assert threading.active_count() == threads_before
        if control is not None:
            assert calls == [1, 1, 1] and blas_after == 2

    def test_blas_hold_finds_openblas_where_numpy_links_it(self):
        # Otherwise the one-thread hold of every epoch would do nothing, silently.
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            pytest.skip("this numpy does not report its BLAS as a dict")
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy links {blas}, not OpenBLAS")
        assert openblas_threads() is not None

    def test_group_queries_collapses_tails(self):
        # Unsorted rows over few ids, so queries share tails, plus repeated triples.
        for seed in range(3):
            triples = np.random.default_rng(seed).integers(0, 6, size=(80, 3))
            triples = np.vstack([triples, triples[::7]])
            oracle: dict = {}
            for h, r, t in triples.tolist():
                oracle.setdefault((h, r), set()).add(t)
            queries, tails = group_queries(triples)
            assert queries.dtype == np.int64 and queries.shape == (len(oracle), 2)
            assert list(map(tuple, queries.tolist())) == sorted(oracle)
            assert [t.tolist() for t in tails] == [sorted(oracle[q]) for q in sorted(oracle)]


class TestFit:
    def test_learns_two_block_kg(self):
        kg = two_block_kg(seed=1)
        config = TrainConfig(epochs=200, d_e=32, d_r=10, seed=1, eval_every=10, patience=3)
        result = fit(kg, config)
        assert result.best_val_mrr >= 0.2
        assert result.epochs_run <= 200
        assert any("val_mrr" in rec for rec in result.log)

    def test_patience_zero_stops_at_first_non_improvement(self):
        kg = two_block_kg(seed=2)
        config = TrainConfig(epochs=100, d_e=8, d_r=4, seed=2, eval_every=1, patience=0,
                             learning_rate=0.0, dropout=DropoutSpec())
        # lr=0 never improves after the first evaluation.
        result = fit(kg, config)
        assert result.epochs_run == 2

    def test_decay_rate_one_keeps_lr(self):
        kg = two_block_kg(seed=3)
        config = TrainConfig(epochs=5, d_e=8, d_r=4, seed=0, eval_every=10, decay_rate=1.0)
        result = fit(kg, config)
        assert all(rec["lr"] == config.learning_rate for rec in result.log)

    def test_decay_rate_shrinks_lr(self):
        kg = two_block_kg(seed=3)
        config = TrainConfig(epochs=4, d_e=8, d_r=4, seed=0, eval_every=10, decay_rate=0.5)
        result = fit(kg, config)
        lrs = [rec["lr"] for rec in result.log]
        assert lrs == [0.005, 0.0025, 0.00125, 0.000625]

    def test_validates_after_the_last_epoch_when_eval_every_is_not_reached(self):
        kg = two_block_kg(seed=3)
        config = TrainConfig(epochs=2, d_e=8, d_r=4, seed=0, eval_every=10)
        result = fit(kg, config)
        assert ["val_mrr" in rec for rec in result.log] == [False, True]
        assert result.best_epoch == 1 and result.best_val_mrr > 0.0
        assert result.best_val_report is not None

    def test_fit_deterministic(self):
        kg = two_block_kg(seed=4)
        config = TrainConfig(epochs=12, d_e=8, d_r=4, seed=9, eval_every=5, patience=10)
        a, b = fit(kg, config), fit(kg, config)
        for name, arr in a.params.param_blocks().items():
            np.testing.assert_array_equal(arr, b.params.param_blocks()[name])
        assert a.log == b.log

    @pytest.mark.parametrize("model", ["tucker", "transe", "distmult", "complex"])
    def test_diverged_parameters_raise_naming_epoch_and_block(self, model):
        config = TrainConfig(epochs=3, d_e=8, d_r=4, seed=5, learning_rate=1e300, model=model)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError) as err:
            fit(two_block_kg(seed=7), config)
        assert str(err.value) == "training diverged: E has non-finite values after epoch 0"


class TestGridSearch:
    def test_single_cell_equals_fit(self):
        kg = two_block_kg(seed=5)
        base = TrainConfig(epochs=15, seed=2, eval_every=5, patience=3)
        grid = GridSpec(d_r=(4,), d_e=(8,), dropout_input=(0.5,),
                        dropout_relation=(0.2,), dropout_combination=(0.2,))
        cells = grid_search(kg, grid, base)
        assert len(cells) == 1
        direct = fit(kg, dataclasses.replace(base, d_r=4, d_e=8,
                                             dropout=DropoutSpec(0.5, 0.2, 0.2)))
        assert cells[0].val_mrr == direct.best_val_mrr

    def test_nonzero_lr_ranks_first(self):
        kg = two_block_kg(seed=6)
        base = TrainConfig(epochs=20, seed=1, eval_every=5, patience=2,
                           dropout=DropoutSpec())
        grid = GridSpec(d_r=(4,), d_e=(8,), dropout_input=(0.0,),
                        dropout_relation=(0.0,), dropout_combination=(0.0,))
        slow = grid_search(kg, grid, dataclasses.replace(base, learning_rate=0.0))
        fast = grid_search(kg, grid, base)
        assert fast[0].val_mrr > slow[0].val_mrr
        merged = sorted(fast + slow, key=lambda c: -c.val_mrr)
        assert merged[0].config.learning_rate == 0.005

    def test_needs_a_validation_fold_and_an_epoch(self):
        grid = GridSpec(d_r=(4,), d_e=(8,), dropout_input=(0.5,),
                        dropout_relation=(0.2,), dropout_combination=(0.2,))
        with pytest.raises(ValueError):
            grid_search(two_block_kg(seed=5, valid_size=0), grid, TrainConfig(epochs=2))
        with pytest.raises(ValueError):
            grid_search(two_block_kg(seed=5), grid, TrainConfig(epochs=0))

    def test_reference_cell_representable(self):
        grid = GridSpec()
        cells = list(grid.cells())
        assert {"d_r": 10, "d_e": 200, "dropout": DropoutSpec(0.5, 0.2, 0.2)} in cells

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(d_r=())


class TestCheckpoint:
    def test_round_trip_bytes_identical(self, tmp_path):
        kg = two_block_kg(seed=7)
        config = TrainConfig(epochs=4, d_e=8, d_r=4, seed=5, eval_every=2, patience=5)
        result = fit(kg, config)
        hashes = {"entities": kg.entities.digest(), "relations": kg.relations.digest()}
        first = tmp_path / "ck1"
        second = tmp_path / "ck2"
        save_checkpoint(str(first), result.params, result.adam_state, config,
                        result.best_epoch, {"mrr": result.best_val_mrr}, hashes)
        params, state, meta = load_checkpoint(str(first))
        save_checkpoint(str(second), params, state, config,
                        meta["epoch"], meta["metrics"], meta["vocab_hash"])
        for fname in sorted(os.listdir(first)):
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), fname

    def test_loaded_params_score_identically(self, tmp_path):
        kg = two_block_kg(seed=8)
        config = TrainConfig(epochs=2, d_e=8, d_r=4, seed=6, eval_every=1, patience=5)
        result = fit(kg, config)
        hashes = {"entities": kg.entities.digest(), "relations": kg.relations.digest()}
        save_checkpoint(str(tmp_path / "ck"), result.params, result.adam_state, config,
                        result.best_epoch, {}, hashes)
        params, _, meta = load_checkpoint(str(tmp_path / "ck"))
        for name, arr in result.params.param_blocks().items():
            np.testing.assert_array_equal(arr, params.param_blocks()[name])
        assert meta["model"] == "tucker"

    @pytest.mark.parametrize("model", ["tucker", "transe", "distmult", "complex"])
    def test_every_model_round_trips(self, tmp_path, model):
        kg = two_block_kg(seed=9)
        config = TrainConfig(epochs=2, d_e=6, d_r=3, seed=2, eval_every=1, patience=5,
                             model=model)
        result = fit(kg, config)
        save_checkpoint(str(tmp_path / "ck"), result.params, result.adam_state, config,
                        result.best_epoch, {}, {})
        params, state, meta = load_checkpoint(str(tmp_path / "ck"))
        assert params.model == meta["model"] == model
        assert params.param_blocks().keys() == result.params.param_blocks().keys()
        for name, arr in result.params.param_blocks().items():
            np.testing.assert_array_equal(arr, params.param_blocks()[name])
            np.testing.assert_array_equal(result.adam_state.m[name], state.m[name])
            np.testing.assert_array_equal(result.adam_state.v[name], state.v[name])

    def test_retraining_another_model_leaves_no_stale_blocks(self, tmp_path):
        kg = two_block_kg(seed=9)
        hashes = {"entities": kg.entities.digest(), "relations": kg.relations.digest()}

        def train_into(directory, model):
            config = TrainConfig(epochs=1, d_e=6, d_r=3, seed=2, eval_every=1, model=model)
            result = fit(kg, config)
            save_checkpoint(str(directory), result.params, result.adam_state, config,
                            result.best_epoch, {}, hashes)

        train_into(tmp_path / "reused", "tucker")
        assert (tmp_path / "reused" / "G.bin").exists()
        train_into(tmp_path / "reused", "distmult")
        train_into(tmp_path / "fresh", "distmult")
        assert sorted(os.listdir(tmp_path / "reused")) == sorted(os.listdir(tmp_path / "fresh"))
        params, _, meta = load_checkpoint(str(tmp_path / "reused"))
        assert params.model == meta["model"] == "distmult"

    @pytest.mark.parametrize("edit, named", [
        (lambda meta: meta["blocks"].pop("G"), "blocks"),
        (lambda meta: meta["blocks"].update(X=[1]), "blocks"),
        (lambda meta: meta.update(model="rescal"), "model"),
        (lambda meta: meta.update(model="transe"), "blocks"),
        (lambda meta: meta.pop("adam_step"), "'adam_step'"),
        (lambda meta: meta.update(vocab_hash=["entities"]), "'vocab_hash'"),
        (lambda meta: meta.update(blocks=list(meta["blocks"])), "'blocks'"),
        (lambda meta: meta["blocks"].update(E="x"), "'blocks'"),
        (lambda meta: meta["blocks"].update(E=[5.0, 4]), "'blocks'"),
        (lambda meta: meta["blocks"].update(E=[True, 20]), "'blocks'"),
        (lambda meta: meta["blocks"].update(E=[20]), "'blocks'"),
        (lambda meta: meta["blocks"].update(E=[[5], 4]), "'blocks'"),
        (lambda meta: meta["blocks"].update(E=[-1, 4]), "'blocks'"),
    ], ids=["missing-core", "extra-block", "unknown-model", "wrong-model",
            "missing-adam-step", "vocab-hash-not-object", "blocks-a-list", "shape-a-string",
            "float-dim", "bool-dim", "too-few-dims", "nested-dim", "negative-dim"])
    def test_bad_meta_is_a_consistency_error(self, tmp_path, edit, named):
        params = init_params(5, 2, 4, 3, seed=0)
        save_checkpoint(str(tmp_path), params, AdamState.for_params(params),
                        TrainConfig(), 0, {}, {})
        meta = json.loads((tmp_path / "meta.json").read_text())
        edit(meta)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConsistencyError) as caught:
            load_checkpoint(str(tmp_path))
        assert "meta.json" in str(caught.value) and named in str(caught.value)

    @pytest.mark.parametrize("text, error, named", [
        ('{"model": "tucker",\n oops}', ParseError, "meta.json:2: "),
        ("[1, 2]", ConsistencyError, "meta.json: not a JSON object"),
    ], ids=["not-json", "not-an-object"])
    def test_unreadable_meta_is_named(self, tmp_path, text, error, named):
        params = init_params(5, 2, 4, 3, seed=0)
        save_checkpoint(str(tmp_path), params, AdamState.for_params(params),
                        TrainConfig(), 0, {}, {})
        (tmp_path / "meta.json").write_text(text)
        with pytest.raises(error) as caught:
            load_checkpoint(str(tmp_path))
        assert named in str(caught.value)

    def test_save_cut_short_over_an_earlier_checkpoint_does_not_load(self, tmp_path,
                                                                     monkeypatch):
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        save_kg_dir(str(data), two_block_kg(seed=9))
        train = ["train", "--data", str(data), "--out", str(ckpt), "--set", "train.epochs=2",
                 "--set", "train.d_e=6", "--set", "train.d_r=3"]
        assert cli.main([*train, "--seed", "1"]) == 0
        written = []

        def fourth_block_fails(path, payload):
            written.append(path)
            if len(written) == 4:
                raise OSError("no space left on device")
            atomic_write_bytes(path, payload)

        monkeypatch.setattr(trainer, "atomic_write_bytes", fourth_block_fails)
        assert cli.main([*train, "--seed", "2"]) == 4
        # The seed-2 E block now sits beside the seed-1 R block, with no meta.json to load.
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(ckpt))
        assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(tmp_path / "eval")]) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(decay_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(model="gnn")
