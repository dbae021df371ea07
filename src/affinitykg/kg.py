"""Knowledge-graph storage: vocabularies, triple folds, reciprocals, filter sets.

Triples are stored as (head, relation, tail) integer id rows. In undirected
mode a triple is kept once in canonical form, with the endpoint whose label
sorts first as the head; direction is re-introduced only by reciprocal
augmentation at training time.

File format (one triple per line, TAB separated, ``#`` starts a comment)::

    perez\td3\tsoto
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.util import atomic_write_text, sha256_text

RECIPROCAL_SUFFIX = "_inv"


class Vocab:
    """Bijection between labels and dense 0-based ids, in first-appearance order."""

    __slots__ = ("labels", "index")

    def __init__(self, labels):
        self.labels = tuple(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate labels in vocabulary")

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


@dataclass(frozen=True)
class Triple:
    h: int
    r: int
    t: int


@dataclass
class KnowledgeGraph:
    entities: Vocab
    relations: Vocab
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    undirected: bool = True
    # Relation count before reciprocal augmentation; equals len(relations)
    # until add_reciprocals doubles the vocabulary.
    n_base_relations: int = field(default=-1)

    def __post_init__(self):
        if self.n_base_relations < 0:
            self.n_base_relations = len(self.relations)
        for name in ("train", "valid", "test"):
            fold = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1, 3)
            setattr(self, name, fold)
            if fold.size:
                if fold[:, [0, 2]].max() >= len(self.entities) or fold.min() < 0:
                    raise ValueError(f"{name} fold references entity ids out of range")
                if fold[:, 1].max() >= len(self.relations):
                    raise ValueError(f"{name} fold references relation ids out of range")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def has_reciprocals(self) -> bool:
        return len(self.relations) == 2 * self.n_base_relations

    def all_triples(self) -> np.ndarray:
        return np.vstack([self.train, self.valid, self.test])


def base_relation(r: int, n_base: int) -> int:
    """The base id of relation r; a reciprocal id r >= n_base maps to r - n_base."""
    return r - n_base if r >= n_base else r


def canonicalize(triple: Triple, entities: Vocab) -> Triple:
    """Order the endpoints so the head label sorts first. Idempotent."""
    if entities.label_of(triple.h) <= entities.label_of(triple.t):
        return triple
    return Triple(triple.t, triple.r, triple.h)


def from_label_triples(label_triples, undirected: bool = True):
    """Build a KnowledgeGraph from (head, relation, tail) label tuples.

    Vocabularies are assigned in first-appearance order (heads and tails both
    feed the entity vocabulary). Duplicate canonical triples are collapsed;
    the count of collapsed duplicates is returned alongside the graph.
    """
    entity_labels: dict[str, int] = {}
    relation_labels: dict[str, int] = {}
    rows: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    duplicates = 0
    for n, (h_label, r_label, t_label) in enumerate(label_triples, start=1):
        if not h_label or not r_label or not t_label:
            raise ParseError("empty label in triple", line_no=n)
        if h_label == t_label:
            raise ParseError(f"self-affinity triple {h_label!r}", line_no=n)
        if undirected and t_label < h_label:
            h_label, t_label = t_label, h_label
        h = entity_labels.setdefault(h_label, len(entity_labels))
        r = relation_labels.setdefault(r_label, len(relation_labels))
        t = entity_labels.setdefault(t_label, len(entity_labels))
        row = (h, r, t)
        if row in seen:
            duplicates += 1
            continue
        seen.add(row)
        rows.append(row)
    entities = Vocab(entity_labels)
    relations = Vocab(relation_labels)
    train = np.array(rows, dtype=np.int64).reshape(-1, 3)
    empty = np.empty((0, 3), dtype=np.int64)
    kg = KnowledgeGraph(entities, relations, train, empty.copy(), empty.copy(), undirected)
    return kg, duplicates


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


def load_triples(lines, undirected: bool = True, path: str | None = None):
    """Parse TAB-separated triple lines into a KnowledgeGraph.

    Returns (kg, duplicate_count). Malformed lines raise ParseError with the
    offending line number.
    """
    def triples():
        for n, fields in _parse_triple_lines(lines, path):
            yield fields

    try:
        return from_label_triples(triples(), undirected=undirected)
    except ParseError as err:
        if err.line_no is not None and err.path is None and path is not None:
            raise ParseError(str(err), path=path) from err
        raise


def load_triples_file(path: str, undirected: bool = True):
    with open(path, "r", encoding="utf-8") as fh:
        return load_triples(fh, undirected=undirected, path=path)


def split(kg: KnowledgeGraph, valid_size: int, test_size: int, seed: int) -> KnowledgeGraph:
    """Re-split all triples into train/valid/test folds, uniformly at random.

    Sampling is without replacement and deterministic for a given seed; the
    remainder after drawing the two evaluation folds becomes the training fold.
    """
    pool = kg.all_triples()
    n = len(pool)
    if valid_size < 0 or test_size < 0:
        raise ValueError("fold sizes must be non-negative")
    if valid_size + test_size >= n:
        raise ValueError(f"valid_size + test_size = {valid_size + test_size} >= {n} triples")
    order = np.random.default_rng(seed).permutation(n)
    valid = pool[order[:valid_size]]
    test = pool[order[valid_size:valid_size + test_size]]
    train = pool[order[valid_size + test_size:]]
    return replace(kg, train=train, valid=valid, test=test)


def add_reciprocals(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Double the relation vocabulary and the training fold with inverses.

    Every training triple (h, r, t) gains a twin (t, r_inv, h); evaluation
    folds keep base relation ids only. Applying this twice is an error.
    """
    if kg.has_reciprocals or any(
        label.endswith(RECIPROCAL_SUFFIX) for label in kg.relations.labels
    ):
        raise ValueError("reciprocal relations already present")
    n_base = len(kg.relations)
    relations = Vocab(
        list(kg.relations.labels)
        + [label + RECIPROCAL_SUFFIX for label in kg.relations.labels]
    )
    inverse = kg.train[:, [2, 1, 0]].copy()
    inverse[:, 1] += n_base
    train = np.vstack([kg.train, inverse])
    return replace(kg, relations=relations, train=train, n_base_relations=n_base)


class KnownTrueSet:
    """Membership index over train + valid + test for filtered ranking.

    Queries accept reciprocal relation ids (>= n_base_relations) and honour
    undirected symmetry: for an undirected graph, (a, r, b) known implies
    (b, r, a) is known too.
    """

    def __init__(self, kg: KnowledgeGraph):
        self.n_base = kg.n_base_relations
        self.undirected = kg.undirected
        fwd: dict[tuple[int, int], set[int]] = {}
        bwd: dict[tuple[int, int], set[int]] = {}
        for h, r, t in kg.all_triples().tolist():
            base = base_relation(r, self.n_base)
            head, tail = (h, t) if base == r else (t, h)
            fwd.setdefault((head, base), set()).add(tail)
            bwd.setdefault((tail, base), set()).add(head)
        self._fwd = fwd
        self._bwd = bwd

    def tails_of(self, entity: int, relation: int) -> frozenset:
        base = base_relation(relation, self.n_base)
        known, mirrored = (self._fwd, self._bwd) if base == relation else (self._bwd, self._fwd)
        out = set(known.get((entity, base), ()))
        if self.undirected:
            out |= mirrored.get((entity, base), set())
        return frozenset(out)

    def contains(self, h: int, r: int, t: int) -> bool:
        return t in self.tails_of(h, r)


# --- split-directory persistence (vocab files keep ids stable across loads) ---

ENTITIES_FILE = "entities.txt"
RELATIONS_FILE = "relations.txt"
FOLD_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


def write_fold_tsv(path: str, kg: KnowledgeGraph, fold: str) -> None:
    rows = getattr(kg, fold)
    lines = [
        f"{kg.entities.label_of(h)}\t{kg.relations.label_of(r)}\t{kg.entities.label_of(t)}"
        for h, r, t in rows
    ]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def save_kg_dir(directory: str, kg: KnowledgeGraph) -> None:
    os.makedirs(directory, exist_ok=True)
    atomic_write_text(
        os.path.join(directory, ENTITIES_FILE),
        "".join(label + "\n" for label in kg.entities.labels),
    )
    atomic_write_text(
        os.path.join(directory, RELATIONS_FILE),
        "".join(label + "\n" for label in kg.relations.labels),
    )
    for fold, fname in FOLD_FILES.items():
        write_fold_tsv(os.path.join(directory, fname), kg, fold)


def _read_vocab_file(path: str) -> Vocab:
    with open(path, "r", encoding="utf-8") as fh:
        return Vocab([line.rstrip("\n") for line in fh if line.rstrip("\n")])


def load_kg_dir(directory: str, undirected: bool = True) -> KnowledgeGraph:
    entities = _read_vocab_file(os.path.join(directory, ENTITIES_FILE))
    relations = _read_vocab_file(os.path.join(directory, RELATIONS_FILE))
    folds = {}
    for fold, fname in FOLD_FILES.items():
        path = os.path.join(directory, fname)
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for n, fields in _parse_triple_lines(fh, path):
                h_label, r_label, t_label = fields
                try:
                    rows.append(
                        (entities.id_of(h_label), relations.id_of(r_label), entities.id_of(t_label))
                    )
                except KeyError as missing:
                    raise ParseError(f"label {missing} not in vocabulary", n, path) from None
        folds[fold] = np.array(rows, dtype=np.int64).reshape(-1, 3)
    kg = KnowledgeGraph(entities, relations, folds["train"], folds["valid"], folds["test"], undirected)
    check_disjoint_folds(kg)
    return kg


def check_disjoint_folds(kg: KnowledgeGraph) -> None:
    """Raise ConsistencyError when a valid or test triple is also in train, or
    valid and test share a triple; undirected triples match in either orientation.
    """
    def keys(rows: np.ndarray) -> list:
        h, r, t = rows.T
        if kg.undirected:
            h, t = np.minimum(h, t), np.maximum(h, t)
        return ((h * kg.n_relations + r) * kg.n_entities + t).tolist()

    # Python sets, not np.isin: its first call grows peak RSS by ~2 MB.
    earlier = {"train": set(keys(kg.train))}
    for fold in ("valid", "test"):
        fold_keys = keys(getattr(kg, fold))
        for other, other_keys in earlier.items():
            for i, key in enumerate(fold_keys):
                if key in other_keys:
                    h, r, t = getattr(kg, fold)[i]
                    labels = (kg.entities.label_of(h), kg.relations.label_of(r),
                              kg.entities.label_of(t))
                    raise ConsistencyError(f"{fold} triple {labels} is also in the {other} fold")
        earlier[fold] = set(fold_keys)
