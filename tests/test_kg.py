"""Knowledge-graph storage: ingestion, canonical form, splits, reciprocals."""

import numpy as np
import pytest

from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.kg import (
    KnownTrueSet,
    Vocab,
    add_reciprocals,
    from_label_triples,
    load_kg_dir,
    load_triples,
    save_kg_dir,
    split,
)


def small_kg(rows):
    kg, _ = from_label_triples(rows)
    return kg


class TestIngestion:
    def test_single_triple(self):
        kg, dups = from_label_triples([("perez", "d10", "soto")])
        assert kg.n_entities == 2 and kg.n_relations == 1
        assert len(kg.train) == 1 and dups == 0

    def test_duplicate_collapsed_with_count(self):
        kg, dups = from_label_triples([("a", "d1", "b"), ("a", "d1", "b")])
        assert len(kg.train) == 1 and dups == 1

    def test_symmetry_collapse(self):
        kg, dups = from_label_triples([("b", "d1", "a"), ("a", "d1", "b")])
        assert len(kg.train) == 1 and dups == 1
        # Canonical form: the endpoint whose label sorts first is the head.
        h, _, t = kg.train[0]
        assert (kg.entities.label_of(h), kg.entities.label_of(t)) == ("a", "b")

    def test_first_appearance_vocab_order(self):
        kg, _ = from_label_triples([("m", "d2", "z"), ("a", "d1", "m")])
        assert kg.entities.labels == ("m", "z", "a")
        assert kg.relations.labels == ("d2", "d1")

    def test_rejects_self_affinity(self):
        with pytest.raises(ParseError):
            from_label_triples([("a", "d1", "a")])

    def test_rejects_empty_label(self):
        with pytest.raises(ParseError):
            from_label_triples([("a", "", "b")])

    def test_malformed_line_reports_number(self):
        lines = ["a\td1\tb", "bad line without tabs"]
        with pytest.raises(ParseError) as err:
            load_triples(lines)
        assert err.value.line_no == 2

    def test_comments_and_blanks_skipped(self):
        kg, _ = load_triples(["# header", "", "a\td1\tb"])
        assert len(kg.train) == 1

    def test_vocab_round_trip(self):
        vocab = Vocab(["soto", "perez", "lopez"])
        for i, lbl in enumerate(vocab.labels):
            assert vocab.id_of(lbl) == i
            assert vocab.label_of(vocab.id_of(lbl)) == lbl


def random_kg(n_triples=100, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    seen = set()
    while len(rows) < n_triples:
        a, b = rng.integers(0, 40, size=2)
        if a == b:
            continue
        r = int(rng.integers(0, 4))
        key = (min(a, b), r, max(a, b))
        if key in seen:
            continue
        seen.add(key)
        rows.append((f"s{min(a,b):02d}", f"d{r + 1}", f"s{max(a,b):02d}"))
    return small_kg(rows)


class TestSplit:
    def test_sizes_and_disjointness(self):
        kg = split(random_kg(100), 10, 10, seed=5)
        assert len(kg.train) == 80 and len(kg.valid) == 10 and len(kg.test) == 10
        folds = [set(map(tuple, fold)) for fold in (kg.train, kg.valid, kg.test)]
        assert not (folds[0] & folds[1]) and not (folds[0] & folds[2]) and not (folds[1] & folds[2])

    def test_partition_is_exact(self):
        base = random_kg(60)
        out = split(base, 7, 9, seed=2)
        before = sorted(map(tuple, base.all_triples()))
        after = sorted(map(tuple, out.all_triples()))
        assert before == after

    def test_deterministic_per_seed(self):
        base = random_kg(50)
        a, b = split(base, 5, 5, seed=9), split(base, 5, 5, seed=9)
        assert np.array_equal(a.valid, b.valid) and np.array_equal(a.test, b.test)

    def test_sizes_too_large(self):
        with pytest.raises(ValueError):
            split(random_kg(20), 15, 5, seed=0)

    def test_membership_frequency_uniform(self):
        # Monte Carlo: each triple lands in the validation fold with
        # probability v/n; check the per-triple counts against 3 sigma of
        # the binomial over 1000 seeds.
        base = random_kg(40)
        v, n, n_seeds = 8, 40, 1000
        counts = np.zeros(n)
        index = {tuple(row): i for i, row in enumerate(map(tuple, base.all_triples()))}
        for seed in range(n_seeds):
            out = split(base, v, 4, seed=seed)
            for row in map(tuple, out.valid):
                counts[index[row]] += 1
        p = v / n
        sigma = np.sqrt(n_seeds * p * (1 - p))
        assert np.all(np.abs(counts - n_seeds * p) <= 3 * sigma)


class TestReciprocals:
    def test_doubles_relations_and_train(self):
        kg = split(random_kg(50), 5, 5, seed=1)
        aug = add_reciprocals(kg)
        assert aug.n_relations == 2 * kg.n_relations
        assert len(aug.train) == 2 * len(kg.train)
        assert len(aug.valid) == len(kg.valid) and len(aug.test) == len(kg.test)

    def test_inverse_triples_present(self):
        kg = small_kg([("a", "d1", "b"), ("b", "d2", "c")])
        aug = add_reciprocals(kg)
        train = set(map(tuple, aug.train))
        n = kg.n_relations
        for h, r, t in kg.train:
            assert (t, r + n, h) in train

    def test_double_application_fails(self):
        aug = add_reciprocals(small_kg([("a", "d1", "b")]))
        with pytest.raises(ValueError):
            add_reciprocals(aug)


class TestKnownTrueSet:
    def test_training_triple_is_known(self):
        kg = small_kg([("a", "d1", "b")])
        known = KnownTrueSet(kg)
        a, b = kg.entities.id_of("a"), kg.entities.id_of("b")
        assert b in known.tails_of(a, 0)
        assert a in known.tails_of(b, 0)  # undirected symmetry

    def test_absent_pair_is_unknown(self):
        kg = small_kg([("a", "d1", "b"), ("c", "d1", "d")])
        known = KnownTrueSet(kg)
        assert kg.entities.id_of("d") not in known.tails_of(kg.entities.id_of("a"), 0)

    def test_reciprocal_ids_supported(self):
        kg = add_reciprocals(small_kg([("a", "d1", "b")]))
        known = KnownTrueSet(kg)
        a, b = kg.entities.id_of("a"), kg.entities.id_of("b")
        assert a in known.tails_of(b, 1) and b in known.tails_of(a, 1)

    def test_matches_linear_scan(self):
        kg = split(random_kg(1000, seed=3), 100, 100, seed=3)
        known = KnownTrueSet(kg)
        rows = set(map(tuple, kg.all_triples()))
        rng = np.random.default_rng(0)

        def scan(e, r, x):
            if r >= kg.n_base_relations:
                base = r - kg.n_base_relations
                return (x, base, e) in rows or (e, base, x) in rows
            return (e, r, x) in rows or (x, r, e) in rows

        for _ in range(2000):
            e, x = rng.integers(0, kg.n_entities, size=2)
            r = int(rng.integers(0, 2 * kg.n_base_relations))
            assert (int(x) in known.tails_of(int(e), r)) == scan(int(e), r, int(x))


class TestPersistence:
    def test_round_trip_preserves_ids(self, tmp_path):
        kg = split(random_kg(80, seed=4), 10, 10, seed=4)
        save_kg_dir(str(tmp_path), kg)
        back = load_kg_dir(str(tmp_path))
        assert back.entities == kg.entities and back.relations == kg.relations
        for fold in ("train", "valid", "test"):
            assert np.array_equal(getattr(back, fold), getattr(kg, fold))

    def test_unknown_label_rejected(self, tmp_path):
        kg = small_kg([("a", "d1", "b")])
        save_kg_dir(str(tmp_path), kg)
        (tmp_path / "train.tsv").write_text("a\td1\tzz\n")
        with pytest.raises(ParseError):
            load_kg_dir(str(tmp_path))

    @pytest.mark.parametrize("fold,line,other", [
        ("valid", "a\td1\tb\n", "train"),
        ("test", "b\td1\ta\n", "train"),   # the train triple in the other orientation
        ("test", "c\td2\td\n", "valid"),
    ])
    def test_fold_leak_rejected(self, tmp_path, fold, line, other):
        save_kg_dir(str(tmp_path), small_kg([("a", "d1", "b"), ("c", "d2", "d")]))
        (tmp_path / "train.tsv").write_text("a\td1\tb\n")
        (tmp_path / "valid.tsv").write_text("c\td2\td\n")
        load_kg_dir(str(tmp_path))  # disjoint folds load
        with open(tmp_path / f"{fold}.tsv", "a") as fh:
            fh.write(line)
        with pytest.raises(ConsistencyError) as err:
            load_kg_dir(str(tmp_path))
        assert f"{fold} triple" in str(err.value) and f"{other} fold" in str(err.value)
        assert repr(tuple(line.rstrip("\n").split("\t"))) in str(err.value)

    @pytest.mark.parametrize("fold,line,problem", [
        ("train", "a\td1\ta\n", "self-loop"),
        ("valid", "c\td2\tc\n", "self-loop"),
        ("train", "a\td1\tb\n", "repeated"),
        ("train", "b\td1\ta\n", "repeated"),   # the same triple in the other orientation
        ("valid", "d\td2\tc\n", "repeated"),
    ])
    def test_malformed_fold_rejected(self, tmp_path, fold, line, problem):
        save_kg_dir(str(tmp_path), small_kg([("a", "d1", "b"), ("c", "d2", "d")]))
        (tmp_path / "train.tsv").write_text("a\td1\tb\n")
        (tmp_path / "valid.tsv").write_text("c\td2\td\n")
        with open(tmp_path / f"{fold}.tsv", "a") as fh:
            fh.write(line)
        with pytest.raises(ConsistencyError) as err:
            load_kg_dir(str(tmp_path))
        assert str(err.value).startswith(f"{fold}.tsv: ") and problem in str(err.value)
        assert repr(tuple(line.rstrip("\n").split("\t"))) in str(err.value)
