"""Shared-nearest-neighbor machinery against set-algebra and distance oracles."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinitykg.cli import main as cli_main
from affinitykg.kg import KnowledgeGraph, Vocab, load_kg_dir, load_triples, neighbour_index
from affinitykg.models import init_params, score_tucker
from affinitykg.snn import (
    _near_window,
    _neighbors,
    analyze_predictions,
    asymmetry_index,
    decile_relations,
    export_relation_heatmaps,
    knn_embedding,
    neighbors_grounded,
    neighbors_near_deciles,
    parse_relation_matrix_csv,
    relation_matrix_csv,
    select_hits,
    snn,
    transform_embeddings,
)
from affinitykg.synthetic import two_block_kg
from affinitykg.trainer import openblas_threads

id_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=15)


class TestSnn:
    def test_hand_count(self):
        assert snn({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_identical_sets(self):
        assert snn({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert snn({1}, {2}) == 0.0

    def test_both_empty_defined_zero(self):
        assert snn(set(), set()) == 0.0

    @given(id_sets, id_sets)
    def test_matches_set_algebra_oracle(self, a, b):
        union = len(a | b)
        expected = (len(a & b) / union) if union else 0.0
        assert snn(a, b) == expected

    @given(id_sets, id_sets)
    def test_symmetric_and_bounded(self, a, b):
        value = snn(a, b)
        assert value == snn(b, a)
        assert 0.0 <= value <= 1.0
        if a and a == b:
            assert value == 1.0


def scan_grounded(kg, entity, decile):
    """Brute-force oracle: rescan every training row."""
    if f"d{decile}" not in kg.relations:
        return set()
    rid = kg.relations.id_of(f"d{decile}")
    out = {t if h == entity else h for h, r, t in kg.train.tolist()
           if r == rid and entity in (h, t)}
    out.discard(entity)
    return out


def scan_near(kg, entity, decile):
    out = set()
    for d in (decile - 1, decile, decile + 1):
        out |= scan_grounded(kg, entity, d)
    return out


def star_kg():
    rows = [
        ("a", "d3", "b"),
        ("a", "d3", "c"),
        ("a", "d4", "d"),
        ("b", "d2", "d"),
    ]
    kg, _ = load_triples(["\t".join(row) for row in rows])
    return kg


class TestNeighborSets:
    def test_single_edge(self):
        kg = star_kg()
        a, b = kg.entities.id_of("a"), kg.entities.id_of("b")
        assert neighbors_grounded(kg, a, 3) == {b, kg.entities.id_of("c")}
        assert neighbors_grounded(kg, b, 3) == {a}

    def test_eval_folds_excluded(self):
        kg = star_kg()
        # Move one edge out of the training fold by hand.
        kg.valid = kg.train[:1].copy()
        kg.train = kg.train[1:]
        a = kg.entities.id_of("a")
        assert kg.entities.id_of("b") not in neighbors_grounded(kg, a, 3)

    def test_near_deciles_clamped_at_boundary(self):
        kg = star_kg()
        b = kg.entities.id_of("b")
        # d=1 unions deciles {0, 1, 2}, and d0 is absent; b has a d2 edge to d.
        assert neighbors_near_deciles(kg, b, 1) == {kg.entities.id_of("d")}

    def test_near_deciles_unions_adjacent(self):
        kg = star_kg()
        a = kg.entities.id_of("a")
        got = neighbors_near_deciles(kg, a, 3)
        assert got == {kg.entities.id_of(x) for x in ("b", "c", "d")}

    def test_near_superset_of_grounded(self):
        kg = two_block_kg(seed=0, n_entities=60, clique_size=6, valid_size=30, test_size=30)
        for entity in range(0, 60, 7):
            for decile in range(1, 11):
                grounded = neighbors_grounded(kg, entity, decile)
                near = neighbors_near_deciles(kg, entity, decile)
                assert near >= grounded

    def test_matches_scan_oracle(self):
        kg = two_block_kg(seed=1, n_entities=40, clique_size=5, valid_size=20, test_size=20)
        rng = np.random.default_rng(0)
        for _ in range(50):
            entity = int(rng.integers(kg.n_entities))
            decile = int(rng.integers(1, 11))
            assert neighbors_grounded(kg, entity, decile) == scan_grounded(kg, entity, decile)


EMPTY = np.empty((0, 3), dtype=np.int64)


def id_graph(n_entities, labels, rows):
    return KnowledgeGraph(Vocab([f"e{i}" for i in range(n_entities)]), Vocab(labels),
                          np.array(rows, dtype=np.int64).reshape(-1, 3), EMPTY, EMPTY)


@st.composite
def decile_graphs(draw):
    """Small graphs whose relation vocabulary leaves some decile labels out,
    with self-loops allowed."""
    n_e = draw(st.integers(2, 8))
    labels = draw(st.lists(st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
                           min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.tuples(st.integers(0, n_e - 1), st.integers(0, len(labels) - 1),
                                   st.integers(0, n_e - 1)), max_size=30))
    return id_graph(n_e, labels, rows)


class TestAdjacencyIndex:
    @given(decile_graphs())
    def test_matches_rescan_oracle(self, kg):
        for entity in range(kg.n_entities):
            for decile in range(0, 8):
                assert neighbors_grounded(kg, entity, decile) == scan_grounded(kg, entity, decile)
                assert neighbors_near_deciles(kg, entity, decile) == scan_near(kg, entity, decile)

    def test_one_entity_lookups_match_the_full_training_index(self):
        # Each lookup indexes only the rows that touch its entity; the sets must be
        # those of the index over the whole fold, self-loops included.
        kg = id_graph(6, ["d1", "d2", "d4"], [
            [0, 0, 1], [1, 0, 2], [2, 2, 2], [3, 1, 0], [4, 2, 3], [3, 1, 3], [5, 0, 5],
            [0, 2, 4], [1, 1, 5], [5, 0, 5]])
        index, rid_of = neighbour_index(kg.train), decile_relations(kg)
        for entity in range(kg.n_entities):
            for decile in range(0, 7):
                assert neighbors_grounded(kg, entity, decile) == _neighbors(
                    index, rid_of, entity, [decile])
                assert neighbors_near_deciles(kg, entity, decile) == _neighbors(
                    index, rid_of, entity, _near_window(decile))

    def test_analyze_matches_per_hit_oracle(self, tmp_path):
        gen, net, data = tmp_path / "gen", tmp_path / "net", tmp_path / "data"
        assert cli_main(["gen-synthetic", "--out", str(gen), "--seed", "8",
                         "--set", "synth.individuals=4000",
                         "--set", "synth.surnames_per_community=75"]) == 0
        assert cli_main(["build-network", "--records", str(gen / "records.csv"),
                         "--out", str(net)]) == 0
        assert cli_main(["split", "--triples", str(net / "triples.tsv"), "--out", str(data),
                         "--seed", "8", "--set", "split.valid_size=40",
                         "--set", "split.test_size=60"]) == 0
        kg = load_kg_dir(str(data))
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 8, 4, seed=8)
        hits = [(h, r, t) for h, r, t in kg.test.tolist()]
        knn_k = 10

        rows = {}
        for h, r, t in hits:
            decile = int(kg.relations.label_of(r)[1:])
            transformed = transform_embeddings(params, r)
            grounded = snn(scan_grounded(kg, h, decile), scan_grounded(kg, t, decile))
            near = snn(scan_near(kg, h, decile), scan_near(kg, t, decile))
            embedding = snn(knn_embedding(transformed, h, knn_k),
                            knn_embedding(transformed, t, knn_k))
            klass = ("network" if grounded > 0 or near > 0
                     else "embedding" if embedding > 0 else "unexplained")
            rows.setdefault(decile, []).append((grounded, near, embedding, klass))
        expected = []
        for decile, entries in sorted(rows.items()):
            klasses = [e[3] for e in entries]
            expected.append({
                "decile": decile,
                "n_hits": len(entries),
                "snn_grounded": float(np.mean([e[0] for e in entries])),
                "snn_near": float(np.mean([e[1] for e in entries])),
                "snn_embedding": float(np.mean([e[2] for e in entries])),
                "frac_network_grounded": klasses.count("network") / len(entries),
                "frac_embedding_grounded": klasses.count("embedding") / len(entries),
                "frac_unexplained": klasses.count("unexplained") / len(entries),
            })
        report = analyze_predictions(params, kg, hits, knn_k=knn_k)
        assert len(report.deciles) > 1
        assert asdict(report) == {"knn_k": knn_k, "tau": 0.0, "deciles": expected}


class TestKnnEmbedding:
    def test_three_points_on_line(self):
        X = np.array([[0.0], [1.0], [10.0]])
        assert knn_embedding(X, 0, k=1) == {1}
        assert knn_embedding(X, 2, k=1) == {1}

    def test_result_size(self):
        X = np.random.default_rng(0).normal(size=(20, 4))
        for k in (1, 5, 19):
            assert len(knn_embedding(X, 3, k=k)) == k

    def test_self_excluded(self):
        X = np.random.default_rng(1).normal(size=(10, 3))
        for entity in range(10):
            assert entity not in knn_embedding(X, entity, k=9)

    def test_matches_exhaustive_distance_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 8))
        for entity in (0, 57, 199):
            dists = [
                (float(np.linalg.norm(X[j] - X[entity])), j)
                for j in range(200)
                if j != entity
            ]
            dists.sort()
            expected = {j for _, j in dists[:50]}
            assert knn_embedding(X, entity, k=50) == expected

    def test_ties_break_toward_lower_id(self):
        X = np.array([[0.0], [1.0], [1.0], [2.0]])
        assert knn_embedding(X, 0, k=1) == {1}

    def test_query_excluded_when_distances_overflow(self):
        # Both other distances overflow to inf, which the query's own must not tie.
        assert knn_embedding(np.array([[1e200], [-1e200], [0.0]]), 0, k=2) == {1, 2}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_stable_argsort_over_the_other_rows(self, data):
        # Small integer grids tie often; 1e200 squares to inf, and inf - inf is NaN.
        n, dim = data.draw(st.integers(2, 14)), data.draw(st.integers(1, 2))
        special = data.draw(st.sampled_from([0, 1, 4]))  # in 10 cells
        cell = st.integers(0, 9).flatmap(
            lambda i: st.sampled_from([1e200, -1e200, np.inf, -np.inf, np.nan]) if i < special
            else st.integers(-2, 2).map(float))
        X = np.array(data.draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                                        min_size=n, max_size=n)))
        entity, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, n - 1))
        with np.errstate(invalid="ignore", over="ignore"):
            diff = X - X[entity]
            d2 = np.einsum("ij,ij->i", diff, diff)
            others = np.delete(np.arange(n), entity)
            expected = set(others[np.argsort(d2[others], kind="stable")[:k]].tolist())
            assert knn_embedding(X, entity, k=k) == expected

    def test_k_out_of_range(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError):
            knn_embedding(X, 0, k=5)


class TestTransform:
    def test_identity_relation_matrix(self):
        params = init_params(6, 2, 4, 2, seed=0)
        core = np.zeros((4, 2, 4))
        core[:, 0, :] = np.eye(4)
        params.G[:] = core
        params.R[:] = [[1.0, 0.0], [0.0, 1.0]]
        np.testing.assert_allclose(transform_embeddings(params, 0), params.E, atol=1e-15)

    def test_zero_relation_matrix(self):
        params = init_params(6, 2, 4, 2, seed=1)
        params.G[:] = 0.0
        np.testing.assert_array_equal(transform_embeddings(params, 0), np.zeros((6, 4)))

    def test_transformed_head_row_reproduces_score(self):
        params = init_params(10, 4, 6, 3, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            h, t = (int(x) for x in rng.integers(0, 10, size=2))
            r = int(rng.integers(0, 4))
            transformed = transform_embeddings(params, r)
            assert float(transformed[h] @ params.E[t]) == pytest.approx(
                score_tucker(params, h, r, t), abs=1e-12
            )
            # Dotting from the tail row computes the role-swapped score.
            assert float(transformed[t] @ params.E[h]) == pytest.approx(
                score_tucker(params, t, r, h), abs=1e-12
            )


class TestAnalyzePredictions:
    def setup_method(self):
        self.kg = two_block_kg(seed=3, n_entities=60, clique_size=6,
                               valid_size=40, test_size=40)
        self.params = init_params(self.kg.n_entities, 2 * self.kg.n_base_relations,
                                  8, 4, seed=5)

    def test_empty_hits_empty_report(self):
        report = analyze_predictions(self.params, self.kg, [])
        assert report.deciles == []

    def test_nan_tau_rejected(self):
        hits = [(int(h), int(r), int(t)) for h, r, t in self.kg.test[:3]]
        with pytest.raises(ValueError):
            analyze_predictions(self.params, self.kg, hits, tau=float("nan"))

    def test_select_hits_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            select_hits([], cutoff=10, mode="filterd")

    def test_fractions_partition_hits(self):
        hits = [(int(h), int(r), int(t)) for h, r, t in self.kg.test]
        report = analyze_predictions(self.params, self.kg, hits, knn_k=10)
        assert report.deciles
        for row in report.deciles:
            total = (
                row.frac_network_grounded
                + row.frac_embedding_grounded
                + row.frac_unexplained
            )
            assert total == pytest.approx(1.0)
            assert 0.0 <= row.snn_grounded <= 1.0
            assert 0.0 <= row.snn_near <= 1.0
            assert 0.0 <= row.snn_embedding <= 1.0

    def test_shared_train_neighbor_classifies_network(self):
        rows = [
            ("a", "d1", "b"),
            ("a", "d1", "c"),
            ("b", "d1", "c"),  # the predicted pair's shared neighbor is a
        ]
        kg, _ = load_triples(["\t".join(row) for row in rows])
        kg.test = kg.train[2:].copy()
        kg.train = kg.train[:2]
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 4, 2, seed=0)
        b, c = kg.entities.id_of("b"), kg.entities.id_of("c")
        report = analyze_predictions(params, kg, [(b, 0, c)], knn_k=2)
        assert report.deciles[0].frac_network_grounded == 1.0

    def test_embedding_only_overlap_classifies_embedding(self):
        rows = [("a", "d1", "b"), ("c", "d1", "d")]
        kg, _ = load_triples(["\t".join(row) for row in rows])
        kg.test = kg.train[1:].copy()
        kg.train = kg.train[:1]
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 4, 2, seed=0)
        c, d = kg.entities.id_of("c"), kg.entities.id_of("d")
        # c and d share zero grounded neighbors; kNN with k=3 over 4 points
        # always overlaps.
        report = analyze_predictions(params, kg, [(c, 0, d)], knn_k=3)
        assert report.deciles[0].frac_network_grounded == 0.0
        assert report.deciles[0].frac_embedding_grounded == 1.0

    def test_per_decile_means_match_flat_recompute(self):
        hits = [(int(h), int(r), int(t)) for h, r, t in self.kg.test[:20]]
        report = analyze_predictions(self.params, self.kg, hits, knn_k=10)
        for row in report.deciles:
            decile_hits = [
                (h, r, t)
                for h, r, t in hits
                if self.kg.relations.label_of(r) == f"d{row.decile}"
            ]
            grounded = [
                snn(
                    neighbors_grounded(self.kg, h, row.decile),
                    neighbors_grounded(self.kg, t, row.decile),
                )
                for h, r, t in decile_hits
            ]
            assert row.n_hits == len(decile_hits)
            assert row.snn_grounded == pytest.approx(float(np.mean(grounded)))

    def test_select_hits_dedupes_directions(self):
        # Fold order: (5, 1, 6) hits by its head row only, (0, 1, 2) by both
        # rows, (3, 1, 4) by neither, (1, 0, 7) by its tail row only.
        table = np.rec.fromrecords([
            (5, 1, 6, "tail", 40, 40), (5, 1, 6, "head", 9, 9),
            (0, 1, 2, "tail", 3, 3), (0, 1, 2, "head", 1, 1),
            (3, 1, 4, "tail", 40, 40), (3, 1, 4, "head", 11, 11),
            (1, 0, 7, "tail", 2, 2), (1, 0, 7, "head", 20, 20),
        ], names="h,r,t,direction,raw_rank,filtered_rank")
        hits = select_hits(table, cutoff=10)
        assert hits == [(5, 1, 6), (0, 1, 2), (1, 0, 7)]
        assert all(type(x) is int for hit in hits for x in hit)
        table.raw_rank[4] = 1
        assert select_hits(table, cutoff=10, mode="raw") == [(5, 1, 6), (0, 1, 2), (3, 1, 4),
                                                             (1, 0, 7)]


class TestDecileVocabulary:
    def test_absent_decile_keeps_own_decile_in_near_window(self):
        # Deciles d1-d4, d6-d8 and d10 (eight relations); a and b share the
        # d10 neighbour c, so d10 alone already grounds the hit.
        labels = ["d1", "d2", "d3", "d4", "d6", "d7", "d8", "d10"]
        d10 = labels.index("d10")
        kg = id_graph(4, labels, [(0, d10, 2), (1, d10, 2), (0, 0, 3)])
        params = init_params(4, 2 * len(labels), 4, 2, seed=0)
        row, = analyze_predictions(params, kg, [(0, d10, 1)], knn_k=2).deciles
        assert (row.decile, row.snn_grounded, row.snn_near) == (10, 1.0, 1.0)

    @pytest.mark.parametrize("label", ["d05", "d0", "x", "d5_inv", "x/y"])
    def test_non_decile_label_rejected_naming_it(self, label):
        kg = id_graph(3, ["d1", label], [(0, 0, 1), (1, 1, 2)])
        params = init_params(3, 4, 4, 2, seed=0)
        for hits in ([], [(0, 0, 1)]):
            with pytest.raises(ValueError, match=repr(label)):
                analyze_predictions(params, kg, hits, knn_k=1)
        with pytest.raises(ValueError, match=repr(label)):
            export_relation_heatmaps(params, kg)
        for helper in (neighbors_grounded, neighbors_near_deciles):
            with pytest.raises(ValueError, match=repr(label)):
                helper(kg, 0, 1)

    def test_near_window_reaches_above_ten(self):
        # Deciles d1-d12; a and b share the neighbour c only through d11, so
        # the near window of d10 holds c for both.
        labels = [f"d{k}" for k in range(1, 13)]
        d10, d11 = labels.index("d10"), labels.index("d11")
        kg = id_graph(3, labels, [(0, d11, 2), (1, d11, 2)])
        params = init_params(3, 2 * len(labels), 4, 2, seed=0)
        near = [neighbors_near_deciles(kg, entity, 10) for entity in (0, 1)]
        assert near == [{2}, {2}]
        row, = analyze_predictions(params, kg, [(0, d10, 1)], knn_k=1).deciles
        assert row.snn_near == snn(*near) == 1.0

    @pytest.mark.parametrize("knn_k", [0, -1, 3])
    def test_knn_k_out_of_range_rejected_naming_key(self, knn_k):
        kg = id_graph(3, ["d1"], [(0, 0, 1)])
        params = init_params(3, 2, 4, 2, seed=0)
        for hits in ([], [(0, 0, 1)]):
            with pytest.raises(ValueError, match="snn.k"):
                analyze_predictions(params, kg, hits, knn_k=knn_k)


@st.composite
def snn_cases(draw, max_hits=6):
    """(kg, params, hits, knn_k) on a small graph whose relations are decile
    labels in any order, with some deciles missing and some labels unused."""
    n_e = draw(st.integers(3, 8))
    deciles = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5, unique=True))
    triples = st.tuples(st.integers(0, n_e - 1), st.integers(0, len(deciles) - 1),
                        st.integers(0, n_e - 1))
    kg = id_graph(n_e, [f"d{d}" for d in deciles], draw(st.lists(triples, max_size=25)))
    params = init_params(n_e, 2 * len(deciles), 3, 2, seed=draw(st.integers(0, 2**16)))
    hits = draw(st.lists(triples, min_size=1, max_size=max_hits))
    return kg, params, hits, draw(st.integers(1, n_e - 1))


def move_relations(kg, params, hits, labels, new_id):
    """(params, kg, hits) moved to the relation vocabulary `labels`: base id r
    becomes new_id[r], R's base and reciprocal rows move together, and a label
    no old id moves to gets a row of R and no triples."""
    m, n = kg.n_relations, len(labels)
    R = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2 * n, params.d_r))
    for r, new in enumerate(new_id):
        R[new], R[n + new] = params.R[r], params.R[m + r]
    rows = kg.train.copy()
    rows[:, 1] = np.array(new_id, dtype=np.int64)[rows[:, 1]]
    return (replace(params, R=R), KnowledgeGraph(kg.entities, Vocab(labels), rows, EMPTY, EMPTY),
            [(h, new_id[r], t) for h, r, t in hits])


class TestAnalyzeLaws:
    @settings(deadline=None)
    @given(snn_cases(max_hits=1))
    def test_shared_grounded_neighbour_is_a_shared_near_neighbour(self, case):
        kg, params, hits, knn_k = case
        row, = analyze_predictions(params, kg, hits, knn_k=knn_k).deciles
        assert row.snn_near > 0 or not row.snn_grounded > 0

    @settings(deadline=None)
    @given(snn_cases(), st.integers(1, 9), st.data())
    def test_empty_decile_label_changes_no_row(self, case, extra, data):
        kg, params, hits, knn_k = case
        labels = list(kg.relations.labels)
        assume(f"d{extra}" not in labels)
        at = data.draw(st.integers(0, len(labels)))
        moved = move_relations(kg, params, hits, labels[:at] + [f"d{extra}"] + labels[at:],
                               [r + (r >= at) for r in range(len(labels))])
        assert (analyze_predictions(*moved, knn_k=knn_k)
                == analyze_predictions(params, kg, hits, knn_k=knn_k))

    @settings(deadline=None)
    @given(snn_cases(), st.data())
    def test_relation_vocabulary_order_changes_no_row(self, case, data):
        kg, params, hits, knn_k = case
        new_id = data.draw(st.permutations(range(kg.n_relations)))
        labels = [None] * kg.n_relations
        for r, new in enumerate(new_id):
            labels[new] = kg.relations.label_of(r)
        moved = move_relations(kg, params, hits, labels, new_id)
        assert (analyze_predictions(*moved, knn_k=knn_k)
                == analyze_predictions(params, kg, hits, knn_k=knn_k))

    @settings(deadline=None)
    @given(snn_cases(max_hits=1), st.floats(-0.5, 1.0), st.floats(-0.5, 1.0))
    def test_grounded_at_larger_tau_is_grounded_at_smaller(self, case, tau_a, tau_b):
        kg, params, hits, knn_k = case
        low, high = sorted((tau_a, tau_b))
        network = [analyze_predictions(params, kg, hits, knn_k=knn_k, tau=tau)
                   .deciles[0].frac_network_grounded for tau in (low, high)]
        assert network[0] >= network[1]

    @settings(deadline=None)
    @given(snn_cases())
    def test_fractions_sum_to_one(self, case):
        kg, params, hits, knn_k = case
        report = analyze_predictions(params, kg, hits, knn_k=knn_k)
        assert sum(row.n_hits for row in report.deciles) == len(hits)
        for row in report.deciles:
            assert (row.frac_network_grounded + row.frac_embedding_grounded
                    + row.frac_unexplained) == pytest.approx(1.0)


class TestHeatmaps:
    def test_symmetric_matrix_has_zero_index(self):
        M = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert asymmetry_index(M) == 0.0

    def test_antisymmetric_matrix_verified_by_norm_oracle(self):
        M = np.array([[0.0, 3.0], [-3.0, 0.0]])
        # For antisymmetric M, ||M - M^T||_F = ||2M||_F, so the index is 2.
        expected = np.linalg.norm(M - M.T) / np.linalg.norm(M)
        assert asymmetry_index(M) == pytest.approx(expected)
        assert asymmetry_index(M) == pytest.approx(2.0)

    def test_zero_matrix_defined(self):
        assert asymmetry_index(np.zeros((3, 3))) == 0.0

    def test_csv_round_trip_full_precision(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(7, 7)) * 1e3
        back = parse_relation_matrix_csv(relation_matrix_csv(M))
        np.testing.assert_array_equal(back, M)

    def test_transform_and_export_byte_identical_at_one_and_two_blas_threads(self):
        # d_e=200, so OpenBLAS has a product large enough to split over two threads.
        control = openblas_threads()
        if control is None:
            pytest.skip("numpy does not link OpenBLAS")
        get, set_ = control
        kg = two_block_kg(seed=5)
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 200, 10, seed=1)
        before, outputs = get(), []
        try:
            for threads in (1, 2):
                set_(threads)
                transformed = [transform_embeddings(params, r).tobytes()
                               for r in range(params.n_relations)]
                outputs.append((transformed, *export_relation_heatmaps(params, kg)))
        finally:
            set_(before)
        assert outputs[0] == outputs[1]

    def test_export_returns_one_csv_per_decile(self):
        kg = two_block_kg(seed=5, n_entities=40, clique_size=5, valid_size=10, test_size=10)
        params = init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, seed=1)
        files, indices = export_relation_heatmaps(params, kg)
        assert set(indices) == {f"d{i}" for i in range(1, 11)}
        assert set(files) == {f"relmat_{label}.csv" for label in indices}
        for label in indices:
            M = parse_relation_matrix_csv(files[f"relmat_{label}.csv"])
            assert M.shape == (6, 6)
            assert 0.0 <= indices[label] <= 2.0
