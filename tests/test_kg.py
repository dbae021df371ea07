"""Knowledge-graph storage: ingestion, canonical form, splits, reciprocals."""

import itertools
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.kg import (
    FOLD_FILES,
    KnowledgeGraph,
    KnownTrueSet,
    Vocab,
    add_reciprocals,
    check_folds,
    load_kg_dir,
    load_triples,
    save_kg_dir,
    split,
)
from affinitykg.synthetic import two_block_kg
from affinitykg.util import open_text


def label_triples(rows):
    """load_triples over (head, relation, tail) label tuples, TAB-joined."""
    return load_triples(["\t".join(row) for row in rows])


def small_kg(rows):
    kg, _ = label_triples(rows)
    return kg


class TestIngestion:
    def test_single_triple(self):
        kg, dups = label_triples([("perez", "d10", "soto")])
        assert kg.n_entities == 2 and kg.n_relations == 1
        assert len(kg.train) == 1 and dups == 0

    def test_duplicate_collapsed_with_count(self):
        kg, dups = label_triples([("a", "d1", "b"), ("a", "d1", "b")])
        assert len(kg.train) == 1 and dups == 1

    def test_symmetry_collapse(self):
        kg, dups = label_triples([("b", "d1", "a"), ("a", "d1", "b")])
        assert len(kg.train) == 1 and dups == 1
        # Canonical form: the endpoint whose label sorts first is the head.
        h, _, t = kg.train[0]
        assert (kg.entities.label_of(h), kg.entities.label_of(t)) == ("a", "b")

    def test_first_appearance_vocab_order(self):
        kg, _ = label_triples([("m", "d2", "z"), ("a", "d1", "m")])
        assert kg.entities.labels == ("m", "z", "a")
        assert kg.relations.labels == ("d2", "d1")

    def test_rejects_self_affinity(self):
        with pytest.raises(ParseError):
            label_triples([("a", "d1", "a")])

    def test_rejects_empty_label(self):
        with pytest.raises(ParseError):
            label_triples([("a", "", "b")])

    def test_label_ending_in_inv_is_an_ordinary_label(self):
        kg, _ = load_triples(["a\td1\tb", "b\td2_inv\tc"])
        assert kg.relations.labels == ("d1", "d2_inv") and len(kg.train) == 2

    def test_malformed_line_reports_number(self):
        lines = ["a\td1\tb", "bad line without tabs"]
        with pytest.raises(ParseError) as err:
            load_triples(lines)
        assert err.value.line_no == 2

    def test_self_affinity_reports_the_file_line(self):
        with pytest.raises(ParseError) as err:
            load_triples(["# c", "a\td1\tb", "", "c\td2\tc"], path="triples.tsv")
        assert err.value.line_no == 4
        assert str(err.value).startswith("triples.tsv:4: self-affinity triple 'c'")

    @pytest.mark.parametrize("line", ["e1\td2\t#x", "e1\t#d2\te2", "e1\td\r2\te2"],
                             ids=["hash-tail", "hash-relation", "carriage-return"])
    def test_label_the_split_files_cannot_store_names_its_line(self, line):
        # '#x' sorts before 'e1', so it would head the stored row and make it a comment.
        with pytest.raises(ParseError) as err:
            load_triples(["# c", "e0\td1\te1", line], path="triples.tsv")
        assert err.value.line_no == 3
        assert "starts with '#' or contains TAB, CR or LF" in str(err.value)

    def test_vocab_refuses_a_label_the_split_files_cannot_store(self):
        for label in ("#x", "a\rb", "a\nb", "a\tb", "b\n#c"):
            for labels in (["a0", label], [label, "a0"]):
                with pytest.raises(ValueError, match=f"label {re.escape(repr(label))} starts"):
                    Vocab(labels)
        assert Vocab(["x#", "a b"]).labels == ("x#", "a b")

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
        with pytest.raises(ValueError, match="reciprocal relations already present"):
            add_reciprocals(aug)

    def test_keeps_the_relation_vocabulary_and_doubles_n_relations(self):
        kg = small_kg([("a", "d1", "b"), ("b", "d2_inv", "c")])
        aug = add_reciprocals(kg)
        assert aug.relations == kg.relations and aug.n_base_relations == 2
        assert aug.n_relations == 4 and aug.has_reciprocals and not kg.has_reciprocals
        # Reciprocal ids are in range only while the flag says they exist.
        with pytest.raises(ValueError, match="relation ids out of range"):
            replace(aug, has_reciprocals=False)


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
        rows = set(map(tuple, kg.all_triples().tolist()))
        n_base = kg.n_base_relations

        def scan(e, r, x):
            base = r - n_base if r >= n_base else r
            return (e, base, x) in rows or (x, base, e) in rows

        # Every query, reciprocal relation ids included, in a shuffled order.
        queries = list(itertools.product(range(kg.n_entities), range(2 * n_base)))
        queries = [queries[i] for i in np.random.default_rng(0).permutation(len(queries))]
        expected = np.array([[scan(e, r, x) for x in range(kg.n_entities)] for e, r in queries])
        # The augmented graph's reciprocal rows each repeat a base row, so its
        # known set answers every query as the base graph's does.
        for known in (KnownTrueSet(kg), KnownTrueSet(add_reciprocals(kg))):
            block = known.drop_block(*zip(*queries))
            assert block.dtype == bool and np.array_equal(block, expected)
            for (e, r), row in zip(queries, expected):
                assert known.tails_of(e, r) == frozenset(np.flatnonzero(row).tolist())
            assert known.drop_block([], []).shape == (0, kg.n_entities)


class TestPersistence:
    def test_round_trip_preserves_ids(self, tmp_path):
        kg = split(random_kg(80, seed=4), 10, 10, seed=4)
        save_kg_dir(str(tmp_path), kg)
        back = load_kg_dir(str(tmp_path))
        assert back.entities == kg.entities and back.relations == kg.relations
        for fold in ("train", "valid", "test"):
            assert np.array_equal(getattr(back, fold), getattr(kg, fold))

    def test_label_ending_in_inv_round_trips(self, tmp_path):
        kg = small_kg([("a", "d2_inv", "b"), ("b", "d1", "c")])
        save_kg_dir(str(tmp_path), kg)
        back = load_kg_dir(str(tmp_path))
        assert back.relations.labels == ("d2_inv", "d1")
        assert np.array_equal(back.train, kg.train)

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

    @pytest.mark.parametrize("fold,lines,message", [
        ("train", "b\td1\ta\nc\td2\tc\n", "train triple ('b', 'd1', 'a') is repeated"),
        ("valid", "a\td1\tb\nd\td2\td\n", "valid triple ('a', 'd1', 'b') is also in the train fold"),
    ], ids=["repeat-before-self-loop", "leak-before-self-loop"])
    def test_first_bad_row_in_file_order_is_named(self, tmp_path, fold, lines, message):
        save_kg_dir(str(tmp_path), small_kg([("a", "d1", "b"), ("c", "d2", "d")]))
        (tmp_path / "train.tsv").write_text("a\td1\tb\n")
        (tmp_path / "valid.tsv").write_text("c\td2\td\n")
        with open(tmp_path / f"{fold}.tsv", "a") as fh:
            fh.write(lines)
        with pytest.raises(ConsistencyError) as err:
            load_kg_dir(str(tmp_path))
        assert str(err.value) == f"{fold}.tsv: {message}"

    def test_lines_of_two_and_four_fields_name_the_first(self, tmp_path):
        # Cut at every TAB alone, these lines would make two triples of known labels.
        save_kg_dir(str(tmp_path), small_kg([("a", "d1", "b")]))
        (tmp_path / "train.tsv").write_text("a\td1\tb\na\td1\nb\ta\td1\tb\n")
        with pytest.raises(ParseError) as err:
            load_kg_dir(str(tmp_path))
        assert str(err.value) == (f"{tmp_path / 'train.tsv'}:2: "
                                  "expected 3 TAB-separated fields, got 2")

    @pytest.mark.parametrize("name", ["entities.txt", "relations.txt"])
    def test_unstorable_vocabulary_label_names_its_line(self, tmp_path, name):
        save_kg_dir(str(tmp_path), small_kg([("a", "d1", "b")]))
        n_lines = len((tmp_path / name).read_text().splitlines())
        with open(tmp_path / name, "a", encoding="utf-8") as fh:
            fh.write("#x\n")
        with pytest.raises(ParseError) as err:
            load_kg_dir(str(tmp_path))
        assert str(err.value).startswith(f"{tmp_path / name}:{n_lines + 1}: label '#x' starts")

    def test_graph_with_reciprocals_refused_before_any_write(self, tmp_path):
        with pytest.raises(ValueError, match="reciprocal"):
            save_kg_dir(str(tmp_path), add_reciprocals(two_block_kg(seed=1)))
        assert list(tmp_path.iterdir()) == []


# -- the bulk split-directory reader against the per-line reader it replaced --

_ORACLE_UNSTORABLE = re.compile(r"^#|[\t\r\n]")
_ORACLE_WHY = "starts with '#' or contains TAB, CR or LF"


def oracle_read_vocab(path):
    first_line = {}
    with open_text(path) as fh:
        for n, raw in enumerate(fh, start=1):
            label = raw.rstrip("\n")
            if label in first_line:
                raise ParseError(f"label {label!r} repeats line {first_line[label]}", n, path)
            if _ORACLE_UNSTORABLE.search(label):
                raise ParseError(f"label {label!r} {_ORACLE_WHY}", n, path)
            if label:
                first_line[label] = n
    return Vocab(first_line)


def oracle_read_fold(path, entities, relations):
    rows = []
    with open_text(path) as fh:
        for n, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"expected 3 TAB-separated fields, got {len(fields)}", n, path)
            if not all(fields):
                raise ParseError("empty field in triple", n, path)
            for label, vocab in zip(fields, (entities, relations, entities)):
                if label not in vocab:
                    raise ParseError(f"label {label!r} not in vocabulary", n, path)
            rows.append((entities.id_of(fields[0]), relations.id_of(fields[1]),
                         entities.id_of(fields[2])))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def oracle_load_kg_dir(directory):
    """The line-by-line reader of a split directory that load_kg_dir replaced."""
    entities = oracle_read_vocab(os.path.join(directory, "entities.txt"))
    relations = oracle_read_vocab(os.path.join(directory, "relations.txt"))
    folds = {fold: oracle_read_fold(os.path.join(directory, name), entities, relations)
             for fold, name in FOLD_FILES.items()}
    kg = KnowledgeGraph(entities, relations, **folds)
    check_folds(kg)
    return kg


ENTITIES = ["perez", "de la cruz", "soto", "van der berg", "ñandú"]
RELATIONS = ["d1", "d 2", "d10"]


def rarely(draw) -> bool:
    """True about once in four draws."""
    return draw(st.integers(0, 3)) == 0


def with_inserted(draw, lines, extras) -> list:
    """lines with one or two drawn extra lines, each at a drawn position."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extras))
    return lines


# Extra vocabulary lines: blank, a repeat, unstorable, unused.
VOCAB_EXTRAS = st.sampled_from(["", ENTITIES[0], RELATIONS[0], "#x", "a\tb", "unused label"])
# The triples the pools allow, each in a drawn orientation.
triples = st.tuples(st.sampled_from(list(itertools.combinations(ENTITIES, 2))),
                    st.sampled_from(RELATIONS), st.booleans()).map(
    lambda d: (d[0][1], d[1], d[0][0]) if d[2] else (d[0][0], d[1], d[0][1]))
# Skipped lines, malformed ones, a self-loop, unknown labels, and a triple
# that likely repeats a row of this fold or another.
odd_lines = st.one_of(
    st.sampled_from(["", "# a comment", "#", "#perez\td1\tsoto", " ", "perez\td1",
                     "perez\td1\tsoto\tsoto", "perez\t\tsoto", "\td1\tsoto",
                     "perez\td1\t", "perez\td1\tperez", "perez\td1\tzz",
                     "perez \td1\tsoto", "perez\td3\tsoto"]),
    triples.map("\t".join))


@st.composite
def split_dirs(draw):
    """{file name: text} of a split directory, mostly well-formed."""
    rows = draw(st.lists(st.tuples(triples, st.sampled_from(list(FOLD_FILES.values()))),
                         max_size=12, unique_by=lambda d: (frozenset(d[0][::2]), d[0][1])))
    lines = {}
    for name, pool in (("entities.txt", ENTITIES), ("relations.txt", RELATIONS)):
        labels = draw(st.permutations(pool))
        if rarely(draw):
            labels = labels[1:] if draw(st.booleans()) else with_inserted(draw, labels,
                                                                          VOCAB_EXTRAS)
        lines[name] = labels
    for name in FOLD_FILES.values():
        body = ["\t".join(row) for row, fold in rows if fold == name]
        lines[name] = with_inserted(draw, body, odd_lines) if rarely(draw) else body
    texts = {}
    for name, file_lines in lines.items():
        end = draw(st.sampled_from(["\r\n", "\r"])) if rarely(draw) else "\n"
        text = end.join(file_lines) + ("" if rarely(draw) else end)
        texts[name] = ("\ufeff" if rarely(draw) else "") + text
    return texts


class TestSplitDirOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(split_dirs())
    def test_same_graph_or_same_error(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in texts.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            try:
                expected = oracle_load_kg_dir(tmp)
            except (ParseError, ConsistencyError) as err:
                with pytest.raises(type(err)) as got:
                    load_kg_dir(tmp)
                assert str(got.value) == str(err)
                assert getattr(got.value, "line_no", None) == getattr(err, "line_no", None)
                event(f"{type(err).__name__}")
                return
            kg = load_kg_dir(tmp)
        event("loaded")
        assert kg.entities == expected.entities and kg.relations == expected.relations
        for fold in FOLD_FILES:
            got, want = getattr(kg, fold), getattr(expected, fold)
            assert got.dtype == want.dtype and np.array_equal(got, want)
