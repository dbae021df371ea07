"""Ranking metrics against sort-based and exact-arithmetic oracles."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinitykg import evaluator, models
from affinitykg.errors import ConsistencyError
from affinitykg.evaluator import (
    compute_ranks,
    evaluate,
    hits_at,
    mrr,
    per_relation_csv,
    random_top_n_probability,
    rank_of_target,
    ranks_of,
    summarize,
)
from affinitykg.kg import KnownTrueSet
from affinitykg.models import MODELS, ModelParams, init_params, relation_matrix, score_all_tails
from affinitykg.snn import select_hits
from affinitykg.synthetic import two_block_kg


def rank_oracle(scores, target, filter_set, mode):
    """Sort every candidate; ties put the target last (pessimistic). A NaN
    competitor sorts first and a NaN target last."""
    candidates = [
        (c, s)
        for c, s in enumerate(scores)
        if mode == "raw" or c == target or c not in filter_set
    ]

    def key(cs):
        c, s = cs
        if math.isnan(s):
            return (2, 0.0, True) if c == target else (0, 0.0, False)
        return (1, -s, c == target)

    candidates.sort(key=key)
    return [c for c, _ in candidates].index(target) + 1


def scores_oracle(params, h, r):
    """One query scored as the per-query scorer did: a 1-D query vector, then one
    product with E, or TransE's distances written out."""
    E = params.E
    if params.model == "tucker":
        q = E[h] @ relation_matrix(params, r)
    else:
        q = models._BASELINES[params.model][0](E[h], params.R[r])
    if params.model == "transe":
        diff = q - E
        return -np.sqrt(np.sum(diff * diff, axis=1))
    return q @ E.T


def ranks_oracle(params, kg, fold="test"):
    """compute_ranks written out query by query, through scores_oracle,
    rank_oracle and KnownTrueSet.tails_of: a row tuple per query."""
    known = KnownTrueSet(kg)
    n_base = kg.n_base_relations
    records = []
    for h, r, t in getattr(kg, fold).tolist():
        for direction, query, rel, target in (("tail", h, r, t), ("head", t, r + n_base, h)):
            scores = scores_oracle(params, query, rel)
            filter_set = known.tails_of(query, rel)
            records.append((h, r, t, direction,
                            rank_oracle(scores, target, filter_set, "raw"),
                            rank_oracle(scores, target, filter_set, "filtered")))
    return records


class TestRankOfTarget:
    def test_unique_max_is_rank_one(self):
        assert rank_of_target([0.1, 0.9, 0.3], 1) == 1

    def test_hand_count(self):
        assert rank_of_target([3.0, 2.0, 1.0], 1, mode="raw") == 2

    def test_ties_are_pessimistic(self):
        assert rank_of_target([1.0, 1.0, 1.0], 0, mode="raw") == 3

    def test_filtering_removes_known_true(self):
        scores = [5.0, 4.0, 3.0, 2.0]
        assert rank_of_target(scores, 3, frozenset({0, 1}), "filtered") == 2
        assert rank_of_target(scores, 3, frozenset({0, 1}), "raw") == 4

    def test_target_in_filter_set_still_ranked(self):
        assert rank_of_target([1.0, 2.0], 0, frozenset({0, 1}), "filtered") == 1

    def test_nan_competitor_counts_as_better(self):
        nan = float("nan")
        assert rank_of_target([0.5, nan, 0.9, nan], 2, mode="raw") == 3
        # A filtered NaN competitor no longer counts.
        assert rank_of_target([0.5, nan, 0.9, nan], 2, frozenset({1}), "filtered") == 2

    def test_nan_target_ranks_last_among_kept_candidates(self):
        nan = float("nan")
        scores = [0.5, 0.1, nan, 2.0, nan]
        assert rank_of_target(scores, 2, mode="raw") == 5
        assert rank_of_target(scores, 2, frozenset({0, 4}), "filtered") == 3
        assert np.isfinite(mrr([rank_of_target([nan], 0, mode="raw")]))

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            # Coarse grid of scores makes ties frequent.
            scores = rng.integers(0, 5, size=n).astype(float)
            target = int(rng.integers(n))
            filter_set = frozenset(
                int(c) for c in rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            )
            for mode in ("raw", "filtered"):
                assert rank_of_target(scores, target, filter_set, mode) == rank_oracle(
                    scores, target, filter_set, mode
                )

    def test_filtered_never_exceeds_raw(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            scores = rng.normal(size=n)
            target = int(rng.integers(n))
            filter_set = frozenset(int(c) for c in rng.choice(n, size=n // 3, replace=False))
            raw = rank_of_target(scores, target, filter_set, "raw")
            filtered = rank_of_target(scores, target, filter_set, "filtered")
            assert filtered <= raw


class TestModes:
    def test_misspelled_mode_rejected(self):
        table = np.rec.fromrecords([(0, 0, 1, "tail", 5, 2)],
                                   names="h,r,t,direction,raw_rank,filtered_rank")
        assert ranks_of(table, "filtered").tolist() == [2]
        assert ranks_of(table, "raw").tolist() == [5]
        with pytest.raises(ValueError):
            ranks_of(table, "filterd")
        with pytest.raises(ValueError):
            summarize(table, mode="filterd")
        with pytest.raises(ValueError):
            select_hits(table, cutoff=10, mode="filterd")
        with pytest.raises(ValueError):
            rank_of_target([0.0, 1.0], 0, mode="filterd")


class TestHitsAndMrr:
    def test_hand_counts(self):
        ranks = [1, 4, 12]
        assert hits_at(ranks, 1) == pytest.approx(1 / 3)
        assert hits_at(ranks, 3) == pytest.approx(1 / 3)
        assert hits_at(ranks, 10) == pytest.approx(2 / 3)
        assert mrr(ranks) == pytest.approx((1 + 0.25 + 1 / 12) / 3)

    def test_all_rank_one(self):
        assert hits_at([1, 1, 1], 1) == 1.0
        assert mrr([1, 1, 1]) == 1.0

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=50))
    def test_hits_monotone_in_n(self, ranks):
        values = [hits_at(ranks, n) for n in (1, 3, 10)]
        assert values[0] <= values[1] <= values[2] <= 1.0

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30))
    def test_mrr_matches_direct_sum(self, ranks):
        assert mrr(ranks) == pytest.approx(sum(1 / r for r in ranks) / len(ranks))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hits_at([], 10)
        with pytest.raises(ValueError):
            mrr([])


def perfect_params(kg):
    """One-hot entity embeddings and a core built from the known-true sets.

    score(h, r, t) = 1 exactly when (h, r, t) is known, 0 otherwise.
    """
    n_e = kg.n_entities
    n_r = 2 * kg.n_base_relations
    known = KnownTrueSet(kg)
    E = np.eye(n_e)
    R = np.eye(n_r)
    G = np.zeros((n_e, n_r, n_e))
    for r in range(n_r):
        for h in range(n_e):
            for t in known.tails_of(h, r):
                G[h, r, t] = 1.0
    return ModelParams("tucker", E, R, G)


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        kg = two_block_kg(seed=0, n_entities=40, clique_size=6, valid_size=20, test_size=20)
        report = evaluate(perfect_params(kg), kg)
        assert report.hits1 == report.hits3 == report.hits10 == report.mrr == 1.0

    def test_report_invariants(self):
        kg = two_block_kg(seed=1, n_entities=40, clique_size=6, valid_size=20, test_size=20)
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, seed=2)
        report = evaluate(params, kg)
        assert report.hits1 <= report.hits3 <= report.hits10 <= 1.0
        assert 0.0 < report.mrr <= 1.0
        assert sum(report.hits_per_rank) == round(report.hits10 * report.n)
        assert sum(sub.n for sub in report.per_relation.values()) == report.n

    def test_evaluate_pure(self):
        kg = two_block_kg(seed=2, n_entities=40, clique_size=6, valid_size=20, test_size=20)
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, seed=3)
        a = evaluate(params, kg)
        b = evaluate(params, kg)
        assert a.to_dict() == b.to_dict()

    def test_random_params_near_uniform_expectation(self):
        kg = two_block_kg(seed=3)
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 8, 4, seed=11)
        records = compute_ranks(params, kg)
        known = KnownTrueSet(kg)
        n_base = kg.n_base_relations
        expectations, variances = [], []
        for h, r, t in kg.test:
            for query, rel in ((int(h), int(r)), (int(t), int(r) + n_base)):
                target = int(t) if rel < n_base else int(h)
                n_candidates = kg.n_entities - len(known.tails_of(query, rel) - {target})
                inv = np.array([1.0 / k for k in range(1, n_candidates + 1)])
                expectations.append(inv.mean())
                variances.append((inv**2).mean() - inv.mean() ** 2)
        expected = float(np.mean(expectations))
        sigma = float(np.sqrt(np.sum(variances)) / len(expectations))
        observed = mrr([rec.filtered_rank for rec in records])
        assert abs(observed - expected) <= 3 * sigma

    def test_vocab_mismatch_rejected(self):
        kg = two_block_kg(seed=4, n_entities=40, clique_size=6, valid_size=10, test_size=10)
        params = init_params(kg.n_entities + 1, 2 * kg.n_base_relations, 6, 3, seed=0)
        with pytest.raises(ConsistencyError):
            evaluate(params, kg)
        params = init_params(kg.n_entities, kg.n_base_relations, 6, 3, seed=0)
        with pytest.raises(ConsistencyError):
            evaluate(params, kg)

    def test_per_relation_csv_shape(self):
        kg = two_block_kg(seed=5, n_entities=40, clique_size=6, valid_size=20, test_size=20)
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, seed=1)
        text = per_relation_csv(evaluate(params, kg))
        lines = text.strip().split("\n")
        assert lines[0] == "relation,hits1,hits3,hits10,mrr,n"
        assert all(len(line.split(",")) == 6 for line in lines[1:])
        report = evaluate(params, kg)
        assert sum(sub.n for sub in report.per_relation.values()) == report.n

    def test_summarize_histogram_counts_every_direction(self):
        kg = two_block_kg(seed=6, n_entities=40, clique_size=6, valid_size=20, test_size=20)
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, seed=4)
        records = compute_ranks(params, kg)
        report = summarize(records)
        assert report.n == 2 * len(kg.test)
        ranks = [rec.filtered_rank for rec in records]
        for k in range(1, 11):
            assert report.hits_per_rank[k - 1] == ranks.count(k)


class TestComputeRanksOracle:
    def setup_method(self):
        self.kg = two_block_kg(seed=8, n_entities=40, clique_size=6, valid_size=20, test_size=20)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_per_query_scoring(self, model):
        kg = self.kg
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, seed=5, model=model)
        for fold in ("test", "valid"):
            table = compute_ranks(params, kg, fold)
            assert table.dtype.names == ("h", "r", "t", "direction", "raw_rank", "filtered_rank")
            assert table.tolist() == ranks_oracle(params, kg, fold)

    def test_one_relation_matrix_per_relation(self, monkeypatch):
        kg = self.kg
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, seed=5)
        calls = Counter()

        def counted(params, r):
            calls[r] += 1
            return relation_matrix(params, r)

        monkeypatch.setattr(models, "relation_matrix", counted)
        monkeypatch.setattr(evaluator, "relation_matrix", counted, raising=False)
        records = compute_ranks(params, kg)
        ranked = {rec.r + (kg.n_base_relations if rec.direction == "head" else 0)
                  for rec in records}
        assert set(calls) == ranked
        assert max(calls.values()) == 1

    def params(self, model, d_e=6):
        kg = self.kg
        return init_params(kg.n_entities, 2 * kg.n_base_relations, d_e, 3, seed=7, model=model)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("d_e", [6, 200])
    def test_score_all_tails_equals_the_oracle_bit_for_bit(self, model, d_e):
        params = self.params(model, d_e)
        for h, r in ((0, 0), (7, 1), (39, 2), (7, 1)):
            assert np.array_equal(score_all_tails(params, h, r), scores_oracle(params, h, r))

    def test_all_tied_scores_rank_every_kept_candidate(self):
        params = self.params("tucker")
        params.G[:] = 0.0
        records = compute_ranks(params, self.kg)
        assert records.tolist() == ranks_oracle(params, self.kg)
        known = KnownTrueSet(self.kg)
        n_base = self.kg.n_base_relations
        for rec in records:
            query, rel, target = ((rec.h, rec.r, rec.t) if rec.direction == "tail"
                                  else (rec.t, rec.r + n_base, rec.h))
            assert rec.raw_rank == self.kg.n_entities
            assert rec.filtered_rank == self.kg.n_entities - len(
                known.tails_of(query, rel) - {target})

    @pytest.mark.parametrize("model", MODELS)
    def test_nan_entity_row(self, model):
        params = self.params(model)
        nan_entity = int(self.kg.test[0, 0])
        params.E[nan_entity] = np.nan  # after the finite check, as a diverged run would
        records = compute_ranks(params, self.kg)
        assert records.tolist() == ranks_oracle(params, self.kg)
        # As the first triple's head, the NaN entity is a NaN target: it ranks last.
        assert records[1].raw_rank == self.kg.n_entities

    @pytest.mark.parametrize("model", MODELS)
    def test_a_budget_that_splits_a_relation_changes_nothing(self, model, monkeypatch):
        kg = self.kg
        params = self.params(model)
        calls = Counter()

        def counted(params, r):
            calls[r] += 1
            return relation_matrix(params, r)

        per_block = 3
        monkeypatch.setattr(evaluator, "RANK_BLOCK_BYTES", 8 * kg.n_entities * per_block)
        monkeypatch.setattr(models, "relation_matrix", counted)
        per_relation = Counter(int(r) for r in kg.test[:, 1])
        assert max(per_relation.values()) > per_block  # a relation spans blocks
        assert compute_ranks(params, kg).tolist() == ranks_oracle(params, kg)
        if model == "tucker":
            assert len(calls) == 2 * len(per_relation) and max(calls.values()) == 1


class TestRandomTopN:
    def test_single_draw_cases(self):
        assert random_top_n_probability(2, 1) == pytest.approx(1.0)
        assert random_top_n_probability(11, 1) == pytest.approx(0.1)

    def test_degree_zero_is_certain(self):
        assert random_top_n_probability(100, 0) == 1.0

    def test_matches_exact_fraction_oracle(self):
        # Exact rational arithmetic as the extended-precision reference.
        for n_e, degree in ((19041, 20), (500, 7), (50, 3)):
            exact = Fraction(1)
            for i in range(1, degree + 1):
                exact *= Fraction(degree + 1 - i, n_e - i)
            got = random_top_n_probability(n_e, degree)
            assert abs(got - float(exact)) <= abs(float(exact)) * 1e-10

    def test_degree_must_be_smaller_than_vocab(self):
        with pytest.raises(ValueError):
            random_top_n_probability(10, 10)
