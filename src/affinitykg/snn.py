"""Shared-nearest-neighbor explanation of correct predictions.

Base relations are decile labels d<k> (k >= 1, no leading zero). For every
correctly predicted triple (h, d, t) three neighbor sources are compared: the
training-fold adjacency in the same decile, the union over the near window
(deciles d-1, d and d+1; an absent decile has no edges), and a kNN query in the
embedding space after transforming every entity row by the decile's relation
matrix. The SNN of two sets is |intersection| / |union|.

A hit counts as network-grounded when the empirical sources share at least one
neighbor (SNN above the threshold tau, default 0); otherwise it counts as
embedding-grounded when the kNN sets overlap; otherwise it is unexplained.
Neighborhoods use the training fold only, so the predicted edge itself never
leaks into its own explanation. Every one is read from kg.neighbour_index over
training rows (for a one-entity lookup, only those touching the entity), with
deciles mapped to relation ids by decile_relations, the one reader of labels.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from affinitykg.evaluator import ranks_of
from affinitykg.kg import KnowledgeGraph, neighbour_index
from affinitykg.models import ModelParams, relation_matrix
from affinitykg.trainer import one_blas_thread
from affinitykg.util import csv_text


def snn(a, b) -> float:
    """Fraction of shared neighbors over the union; 0 when both sets are empty."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


DECILE_LABEL = re.compile(r"d[1-9][0-9]*")


def decile_relations(kg: KnowledgeGraph) -> dict:
    """Map decile k to the id of base relation d<k>; a label not spelled d<k>
    raises ValueError naming it."""
    rid_of = {}
    for rid, label in enumerate(kg.relations.labels):
        if not DECILE_LABEL.fullmatch(label):
            raise ValueError(f"relation label {label!r} is not a decile label d<k>")
        rid_of[int(label[1:])] = rid
    return rid_of


def _near_window(decile: int) -> tuple:
    """The deciles of a near-decile neighbourhood: d-1, d and d+1."""
    return decile - 1, decile, decile + 1


def _neighbors(index: dict, rid_of: dict, entity: int, deciles) -> set:
    """Union of the entity's neighbors over the deciles, read from a
    kg.neighbour_index; an absent decile adds nothing, and no entity is its
    own neighbor."""
    out = set()
    for d in deciles:
        if d in rid_of:
            out |= index.get((rid_of[d], entity), set())
    out.discard(entity)
    return out


def _entity_neighbors(kg: KnowledgeGraph, entity: int, deciles) -> set:
    """_neighbors over the index of only the training rows that touch the entity."""
    touching = (kg.train[:, 0] == entity) | (kg.train[:, 2] == entity)
    return _neighbors(neighbour_index(kg.train[touching]), decile_relations(kg), entity, deciles)


def neighbors_grounded(kg: KnowledgeGraph, entity: int, decile: int) -> set:
    """Training-fold neighbors of `entity` through relation d<decile>.

    A decile label absent from the relation vocabulary has no edges.
    """
    return _entity_neighbors(kg, entity, [decile])


def neighbors_near_deciles(kg: KnowledgeGraph, entity: int, decile: int) -> set:
    """Union of grounded neighbors over the near window of the decile."""
    return _entity_neighbors(kg, entity, _near_window(decile))


def transform_embeddings(params: ModelParams, relation_id: int) -> np.ndarray:
    """Every entity row mapped through the relation matrix: row e -> e M_r.

    Row h of the result dotted with the raw row of t reproduces the model
    score of (h, r, t).
    """
    return params.E @ relation_matrix(params, relation_id)


def knn_embedding(transformed: np.ndarray, entity: int, k: int = 50) -> set:
    """Ids of the k rows nearest to `entity` in Euclidean distance.

    The query row itself is never one of them, even when other distances are
    infinite. Distance ties resolve to the lower id; a NaN distance ranks
    after every number.
    """
    n = transformed.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    diff = transformed - transformed[entity]
    d2 = np.delete(np.einsum("ij,ij->i", diff, diff), entity)
    kth = np.partition(d2, k - 1)[k - 1]
    # The first k of a stable sort of d2 all lie at or below its k-th
    # smallest value (anywhere, when that is NaN), so only those are sorted.
    near = np.arange(n - 1) if np.isnan(kth) else np.flatnonzero(d2 <= kth)
    near = near[np.argsort(d2[near], kind="stable")[:k]]
    near += near >= entity  # rows after the query were shifted down by the delete
    return set(near.tolist())


@dataclass
class DecileSNN:
    decile: int
    n_hits: int
    snn_grounded: float
    snn_near: float
    snn_embedding: float
    frac_network_grounded: float
    frac_embedding_grounded: float
    frac_unexplained: float


@dataclass
class SNNReport:
    deciles: list = field(default_factory=list)
    knn_k: int = 50
    tau: float = 0.0

    def to_csv(self) -> str:
        columns = ("decile", "snn_grounded", "snn_near", "snn_embedding",
                   "frac_network_grounded", "n_hits")
        return csv_text([columns] + [[getattr(row, c) for c in columns] for row in self.deciles])


def select_hits(table, cutoff: int = 10, mode: str = "filtered") -> list:
    """Distinct fold triples (h, r, t) of a compute_ranks table whose rank in
    either direction is within cutoff, in fold order."""
    within = table[ranks_of(table, mode) <= cutoff]
    return list(dict.fromkeys(within[["h", "r", "t"]].tolist()))


def analyze_predictions(params: ModelParams, kg: KnowledgeGraph, hits,
                        knn_k: int = 50, tau: float = 0.0) -> SNNReport:
    """SNN per source for each hit (h, r, t), aggregated per decile.

    Classification per hit: network-grounded when the same- or near-decile
    SNN exceeds tau, else embedding-grounded when the embedding SNN exceeds
    tau, else unexplained. Per decile the three fractions sum to one. A base
    label not spelled d<k>, or a knn_k outside [1, n_entities - 1], raises
    ValueError before any hit is read.
    """
    if not np.isfinite(tau):
        raise ValueError(f"snn tau must be finite, got {tau}")
    if not 1 <= knn_k < kg.n_entities:
        raise ValueError(f"snn.k must lie in [1, {kg.n_entities - 1}], got {knn_k}")
    rid_of = decile_relations(kg)
    report = SNNReport(knn_k=knn_k, tau=tau)
    decile_of = {rid: d for d, rid in rid_of.items()}
    by_decile: dict[int, list] = {}
    for hit in hits:
        by_decile.setdefault(decile_of[hit[1]], []).append(hit)
    index = neighbour_index(kg.train)

    def shared(h, t, deciles):
        return snn(_neighbors(index, rid_of, h, deciles), _neighbors(index, rid_of, t, deciles))

    for decile in sorted(by_decile):
        group, near = by_decile[decile], _near_window(decile)
        transformed = transform_embeddings(params, rid_of[decile])
        entities = {e for h, _, t in group for e in (h, t)}
        knn = {e: knn_embedding(transformed, e, knn_k) for e in entities}
        grounded = [shared(h, t, [decile]) for h, _, t in group]
        near_snn = [shared(h, t, near) for h, _, t in group]
        embedding = [snn(knn[h], knn[t]) for h, _, t in group]
        klasses = ["network" if g > tau or n > tau else "embedding" if e > tau else "unexplained"
                   for g, n, e in zip(grounded, near_snn, embedding)]
        n_hits = len(group)
        report.deciles.append(DecileSNN(
            decile=decile,
            n_hits=n_hits,
            snn_grounded=float(np.mean(grounded)),
            snn_near=float(np.mean(near_snn)),
            snn_embedding=float(np.mean(embedding)),
            frac_network_grounded=klasses.count("network") / n_hits,
            frac_embedding_grounded=klasses.count("embedding") / n_hits,
            frac_unexplained=klasses.count("unexplained") / n_hits,
        ))
    return report


def asymmetry_index(M: np.ndarray) -> float:
    """||M - M^T||_F / ||M||_F, in [0, 2]; defined as 0 for a zero matrix.
    The norms run at one OpenBLAS thread: above 10 000 entries their last
    bits depend on the count."""
    with one_blas_thread():
        norm = float(np.linalg.norm(M))
        skew = float(np.linalg.norm(M - M.T))
    return 0.0 if norm == 0.0 else skew / norm


def relation_matrix_csv(M: np.ndarray) -> str:
    """Full-precision CSV of a relation matrix (one row per line)."""
    return csv_text(np.asarray(M, dtype=np.float64).tolist())


def parse_relation_matrix_csv(text: str) -> np.ndarray:
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in text.splitlines()
        if line.strip()
    ]
    return np.array(rows, dtype=np.float64)


def export_relation_heatmaps(params: ModelParams, kg: KnowledgeGraph) -> tuple[dict, dict]:
    """The text of relmat_d<k>.csv per base decile, by file name, and label ->
    asymmetry index. A base label not spelled d<k> raises ValueError first."""
    files, indices = {}, {}
    for rid in sorted(decile_relations(kg).values()):
        label = kg.relations.label_of(rid)
        M = relation_matrix(params, rid)
        files[f"relmat_{label}.csv"] = relation_matrix_csv(M)
        indices[label] = asymmetry_index(M)
    return files, indices
