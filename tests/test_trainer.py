"""Optimizer, training loop, early stopping, grid search, checkpoints."""

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from affinitykg import models
from affinitykg.errors import ConsistencyError
from affinitykg.kg import add_reciprocals, from_label_triples
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
    save_checkpoint,
    train_epoch,
)


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
    kg, _ = from_label_triples([("a", "d1", "b")])
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
            loss = run_epoch(kg, params, state, config, np.random.default_rng([0, epoch]))
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
        kg = tiny_kg()
        config = no_dropout_config()
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0)
        state = AdamState.for_params(params)
        with pytest.raises(ValueError):
            train_epoch([], params, state, config, np.random.default_rng(0),
                        config.learning_rate)

    @pytest.mark.parametrize("model", ["tucker", "transe"])
    def test_rng_stream_is_shuffle_then_masks_in_iteration_order(self, model):
        kg = add_reciprocals(two_block_kg(seed=0, valid_size=0, test_size=0))
        config = TrainConfig(d_e=6, d_r=3, batch_size=16, model=model)
        params = init_params(kg.n_entities, kg.n_relations, config.d_e, config.d_r, 0, model)
        rng = np.random.default_rng(11)
        run_epoch(kg, params, AdamState.for_params(params), config, rng)
        reference = np.random.default_rng(11)
        groups = group_queries(kg.train)
        reference.permutation(len(groups))
        if model == "tucker":  # only a query through a core draws masks
            for _ in groups:
                sample_masks(config.dropout, config.d_e, reference)
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

    def test_group_queries_collapses_tails(self):
        triples = np.array([[0, 0, 1], [0, 0, 2], [1, 0, 2]])
        groups = group_queries(triples)
        assert [(h, r, list(t)) for h, r, t in groups] == [
            (0, 0, [1, 2]),
            (1, 0, [2]),
        ]


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

    @pytest.mark.parametrize("edit", [
        lambda meta: meta["blocks"].pop("G"),
        lambda meta: meta["blocks"].update(X=[1]),
        lambda meta: meta.update(model="rescal"),
        lambda meta: meta.update(model="transe"),
    ], ids=["missing-core", "extra-block", "unknown-model", "wrong-model"])
    def test_bad_meta_is_a_consistency_error(self, tmp_path, edit):
        params = init_params(5, 2, 4, 3, seed=0)
        save_checkpoint(str(tmp_path), params, AdamState.for_params(params),
                        TrainConfig(), 0, {}, {})
        meta = json.loads((tmp_path / "meta.json").read_text())
        edit(meta)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConsistencyError):
            load_checkpoint(str(tmp_path))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(decay_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(model="gnn")
