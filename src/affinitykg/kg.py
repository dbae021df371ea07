"""Knowledge-graph storage: vocabularies, triple folds, reciprocals, filter sets.

Triples are stored as (head, relation, tail) integer id rows. The graph is
undirected: a triple is kept once in canonical form, with the endpoint whose
label sorts first as the head; direction is re-introduced only by reciprocal
augmentation at training time, which adds relation id r + n_base_relations as
the inverse of base relation r. The relation vocabulary holds only the base
labels; a reciprocal relation has an id and no label.

File format (one triple per line, TAB separated, ``#`` starts a comment)::

    perez\td3\tsoto
"""

import os
import re
from dataclasses import dataclass, replace

import numpy as np

from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.util import atomic_write_text, open_text, sha256_text


# A label the split files cannot carry: they hold one label or one
# TAB-separated triple per line, and a line starting with '#' is a comment.
UNSTORABLE_LABEL = re.compile(r"^#|[\t\r\n]")
UNSTORABLE_WHY = "starts with '#' or contains TAB, CR or LF"


class Vocab:
    """Bijection between labels and dense 0-based ids, in first-appearance order.

    Every label must be storable (see UNSTORABLE_LABEL), so a graph that holds
    one round-trips through save_kg_dir and load_kg_dir."""

    __slots__ = ("labels", "index")

    def __init__(self, labels):
        self.labels = tuple(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate labels in vocabulary")
        for label in filter(UNSTORABLE_LABEL.search, self.labels):
            raise ValueError(f"label {label!r} {UNSTORABLE_WHY}")

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.labels == other.labels

    def id_of(self, label: str) -> int:
        return self.index[label]

    def label_of(self, idx: int) -> str:
        return self.labels[idx]

    def digest(self) -> str:
        return sha256_text("\n".join(self.labels))


@dataclass
class KnowledgeGraph:
    entities: Vocab
    relations: Vocab
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    # Set by add_reciprocals: relation id r + n_base_relations is the inverse of r.
    has_reciprocals: bool = False

    def __post_init__(self):
        for name in ("train", "valid", "test"):
            fold = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1, 3)
            setattr(self, name, fold)
            if fold.size:
                if fold[:, [0, 2]].max() >= len(self.entities) or fold.min() < 0:
                    raise ValueError(f"{name} fold references entity ids out of range")
                if fold[:, 1].max() >= self.n_relations:
                    raise ValueError(f"{name} fold references relation ids out of range")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_base_relations(self) -> int:
        return len(self.relations)

    @property
    def n_relations(self) -> int:
        return 2 * len(self.relations) if self.has_reciprocals else len(self.relations)

    def all_triples(self) -> np.ndarray:
        return np.vstack([self.train, self.valid, self.test])


def neighbour_index(rows: np.ndarray) -> dict:
    """Map (relation id, entity) to the entities joined to it by a row.

    Each row counts in both orientations. A self-loop row makes an entity its
    own neighbour.
    """
    index: dict[tuple[int, int], set[int]] = {}
    for h, r, t in rows.tolist():
        index.setdefault((r, h), set()).add(t)
        index.setdefault((r, t), set()).add(h)
    return index


def _parse_triple_lines(lines, path=None):
    for n, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 TAB-separated fields, got {len(fields)}", n, path)
        if any(not f for f in fields):
            raise ParseError("empty field in triple", n, path)
        yield n, tuple(fields)


def load_triples(lines, path: str | None = None):
    """Parse TAB-separated triple lines into a KnowledgeGraph.

    Vocabularies are assigned in first-appearance order (heads and tails both
    feed the entity vocabulary). Duplicate canonical triples are collapsed.
    Returns (kg, duplicate_count). Malformed lines, and labels the split files
    could not store, raise ParseError with the offending line number.
    """
    entity_labels: dict[str, int] = {}
    relation_labels: dict[str, int] = {}
    rows: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    duplicates = 0
    for n, (h_label, r_label, t_label) in _parse_triple_lines(lines, path):
        if h_label == t_label:
            raise ParseError(f"self-affinity triple {h_label!r}", n, path)
        if t_label < h_label:
            h_label, t_label = t_label, h_label
        if (h_label not in entity_labels or r_label not in relation_labels
                or t_label not in entity_labels):
            for label in filter(UNSTORABLE_LABEL.search, (h_label, r_label, t_label)):
                raise ParseError(f"label {label!r} {UNSTORABLE_WHY}", n, path)
        h = entity_labels.setdefault(h_label, len(entity_labels))
        r = relation_labels.setdefault(r_label, len(relation_labels))
        t = entity_labels.setdefault(t_label, len(entity_labels))
        row = (h, r, t)
        if row in seen:
            duplicates += 1
            continue
        seen.add(row)
        rows.append(row)
    train = np.array(rows, dtype=np.int64).reshape(-1, 3)
    empty = np.empty((0, 3), dtype=np.int64)
    kg = KnowledgeGraph(Vocab(entity_labels), Vocab(relation_labels), train,
                        empty.copy(), empty.copy())
    return kg, duplicates


def load_triples_file(path: str):
    with open_text(path) as fh:
        return load_triples(fh, path=path)


def split(kg: KnowledgeGraph, valid_size: int, test_size: int, seed: int) -> KnowledgeGraph:
    """Re-split all triples into train/valid/test folds, uniformly at random.

    Sampling is without replacement and deterministic for a given seed; the
    remainder after drawing the two evaluation folds becomes the training fold.
    """
    pool = kg.all_triples()
    n = len(pool)
    for name, size in (("valid_size", valid_size), ("test_size", test_size)):
        if size < 0:
            raise ValueError(f"{name} must be non-negative, got {size}")
    if valid_size + test_size >= n:
        raise ValueError(f"valid_size + test_size = {valid_size + test_size} >= {n} triples")
    order = np.random.default_rng(seed).permutation(n)
    valid = pool[order[:valid_size]]
    test = pool[order[valid_size:valid_size + test_size]]
    train = pool[order[valid_size + test_size:]]
    return replace(kg, train=train, valid=valid, test=test)


def add_reciprocals(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Double the training fold with inverses and set has_reciprocals.

    Every training triple (h, r, t) gains a twin (t, r + n_base_relations, h);
    the relation vocabulary and the evaluation folds are unchanged. Applying
    this twice is an error.
    """
    if kg.has_reciprocals:
        raise ValueError("reciprocal relations already present")
    inverse = kg.train[:, [2, 1, 0]]
    inverse[:, 1] += kg.n_base_relations
    return replace(kg, train=np.vstack([kg.train, inverse]), has_reciprocals=True)


class KnownTrueSet:
    """Known neighbours over train + valid + test, for filtered ranking.

    Queries accept reciprocal relation ids (>= n_base_relations), answered as
    their base relation; the graph is undirected, so (a, r, b) known means b
    is known for (a, r) and a for (b, r).
    """

    def __init__(self, kg: KnowledgeGraph):
        self.n_base = kg.n_base_relations
        self._index = neighbour_index(kg.all_triples())

    def tails_of(self, entity: int, relation: int) -> frozenset:
        base = relation - self.n_base if relation >= self.n_base else relation
        return frozenset(self._index.get((base, entity), ()))


# --- split-directory persistence (vocab files keep ids stable across loads) ---

ENTITIES_FILE = "entities.txt"
RELATIONS_FILE = "relations.txt"
FOLD_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


def save_kg_dir(directory: str, kg: KnowledgeGraph) -> None:
    """Write the two vocabularies, then the three folds as label rows. A graph
    with reciprocals is refused before any write: a reciprocal id has no label.
    Vocab refuses a label these files could not store, so every label here
    reads back."""
    if kg.has_reciprocals:
        raise ValueError("a graph with reciprocal relations cannot be saved: "
                         "a reciprocal relation id has no label")
    entities, relations = kg.entities.labels, kg.relations.labels
    texts = {ENTITIES_FILE: entities, RELATIONS_FILE: relations,
             **{fname: [f"{entities[h]}\t{relations[r]}\t{entities[t]}"
                        for h, r, t in getattr(kg, fold).tolist()]
                for fold, fname in FOLD_FILES.items()}}
    for name, lines in texts.items():
        atomic_write_text(os.path.join(directory, name), "".join(line + "\n" for line in lines))


def _read_vocab_file(path: str) -> dict:
    """Each label of a one-label-per-line file mapped to its line, blank lines
    skipped; a repeated label names its line and the first, and a label the
    fold files could not carry names its line."""
    first_line: dict[str, int] = {}
    with open_text(path) as fh:
        for n, raw in enumerate(fh, start=1):
            label = raw.rstrip("\n")
            if label in first_line:
                raise ParseError(f"label {label!r} repeats line {first_line[label]}", n, path)
            if UNSTORABLE_LABEL.search(label):
                raise ParseError(f"label {label!r} {UNSTORABLE_WHY}", n, path)
            if label:
                first_line[label] = n
    return first_line


def load_kg_dir(directory: str) -> KnowledgeGraph:
    entities = Vocab(_read_vocab_file(os.path.join(directory, ENTITIES_FILE)))
    relations = Vocab(_read_vocab_file(os.path.join(directory, RELATIONS_FILE)))
    folds = {}
    for fold, fname in FOLD_FILES.items():
        path = os.path.join(directory, fname)
        rows = []
        with open_text(path) as fh:
            for n, fields in _parse_triple_lines(fh, path):
                h_label, r_label, t_label = fields
                try:
                    rows.append(
                        (entities.id_of(h_label), relations.id_of(r_label), entities.id_of(t_label))
                    )
                except KeyError as missing:
                    raise ParseError(f"label {missing} not in vocabulary", n, path) from None
        folds[fold] = np.array(rows, dtype=np.int64).reshape(-1, 3)
    kg = KnowledgeGraph(entities, relations, folds["train"], folds["valid"], folds["test"])
    check_folds(kg)
    return kg


def check_folds(kg: KnowledgeGraph) -> None:
    """Raise ConsistencyError, naming the fold file and the labels, at the first
    row of train, valid, then test that is a self-loop or repeats an earlier row
    in either orientation: "is repeated" in its fold, "is also in" another."""
    rows = kg.all_triples()
    h, r, t = rows.T
    keys = (np.minimum(h, t) * kg.n_relations + r) * kg.n_entities + np.maximum(h, t)
    # A 1-D unique sorts stably, so each key's index is the row it first appears in.
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first = first[inverse]
    bad = np.flatnonzero((h == t) | (first != np.arange(len(rows))))
    if bad.size:
        i = bad[0]
        folds = np.repeat(list(FOLD_FILES), [len(getattr(kg, fold)) for fold in FOLD_FILES])
        fold, other = str(folds[i]), str(folds[first[i]])
        problem = ("is a self-loop" if h[i] == t[i] else "is repeated" if other == fold
                   else f"is also in the {other} fold")
        labels = (kg.entities.label_of(h[i]), kg.relations.label_of(r[i]),
                  kg.entities.label_of(t[i]))
        raise ConsistencyError(f"{FOLD_FILES[fold]}: {fold} triple {labels} {problem}")
