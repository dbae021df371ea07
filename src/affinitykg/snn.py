"""Shared-nearest-neighbor explanation of correct predictions.

For every correctly predicted triple (h, d, t) three neighbor sources are
compared: the training-fold adjacency in the same decile, the union over the
adjacent deciles (d-1, d, d+1 clamped to the decile range), and a kNN query in
the embedding space after transforming every entity row by the decile's
relation matrix. The SNN of two sets is |intersection| / |union|.

A hit counts as network-grounded when the empirical sources share at least one
neighbor (SNN above the threshold tau, default 0); otherwise it counts as
embedding-grounded when the kNN sets overlap; otherwise it is unexplained.
Neighborhoods use the training fold only, so the predicted edge itself never
leaks into its own explanation. They are read from one (decile, entity)
adjacency index, built by the same kg.neighbour_index that serves filtered
ranking.
"""

from dataclasses import dataclass, field

import numpy as np

from affinitykg.evaluator import check_mode
from affinitykg.kg import KnowledgeGraph, neighbour_index
from affinitykg.models import ModelParams, relation_matrix
from affinitykg.util import format_float


def snn(a, b) -> float:
    """Fraction of shared neighbors over the union; 0 when both sets are empty."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def decile_adjacency(kg: KnowledgeGraph, deciles) -> dict:
    """Training-fold adjacency of the given deciles, from kg.neighbour_index.

    Maps (decile, entity) to the set of entities joined to it by a d<decile>
    training edge. A decile label absent from the relation vocabulary has no
    edges.
    """
    rids = {kg.relations.id_of(f"d{d}"): d for d in deciles if f"d{d}" in kg.relations}
    wanted = np.array(list(rids), dtype=np.int64)
    rows = kg.train[(kg.train[:, 1:2] == wanted).any(axis=1)]
    return {(rids[r], entity): nbrs
            for (r, entity), nbrs in neighbour_index(rows, kg.n_base_relations).items()}


def _near_deciles(decile: int, n_deciles: int) -> list:
    return [d for d in (decile - 1, decile, decile + 1) if 1 <= d <= n_deciles]


def _neighbors(index: dict, entity: int, deciles) -> set:
    """Union of the entity's neighbors over the deciles of a decile_adjacency
    index; no entity is its own neighbor."""
    out = set()
    for d in deciles:
        out |= index.get((d, entity), set())
    out.discard(entity)
    return out


def neighbors_grounded(kg: KnowledgeGraph, entity: int, decile: int) -> set:
    """Training-fold neighbors of `entity` through relation d<decile>.

    A decile label absent from the relation vocabulary has no edges.
    """
    return _neighbors(decile_adjacency(kg, [decile]), entity, [decile])


def neighbors_near_deciles(kg: KnowledgeGraph, entity: int, decile: int,
                           n_deciles: int = 10) -> set:
    """Union of grounded neighbors over the decile and its two nearest deciles."""
    near = _near_deciles(decile, n_deciles)
    return _neighbors(decile_adjacency(kg, near), entity, near)


def transform_embeddings(params: ModelParams, relation_id: int) -> np.ndarray:
    """Every entity row mapped through the relation matrix: row e -> e M_r.

    Row h of the result dotted with the raw row of t reproduces the model
    score of (h, r, t).
    """
    return params.E @ relation_matrix(params, relation_id)


def knn_embedding(transformed: np.ndarray, entity: int, k: int = 50) -> set:
    """Ids of the k rows nearest to `entity` in Euclidean distance.

    The query row itself is excluded; distance ties resolve to the lower id.
    """
    n = transformed.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    diff = transformed - transformed[entity]
    d2 = np.einsum("ij,ij->i", diff, diff)
    d2[entity] = np.inf
    order = np.argsort(d2, kind="stable")
    return set(int(i) for i in order[:k])


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

    def to_dict(self) -> dict:
        return {
            "knn_k": self.knn_k,
            "tau": self.tau,
            "deciles": [
                {
                    "decile": row.decile,
                    "n_hits": row.n_hits,
                    "snn_grounded": row.snn_grounded,
                    "snn_near": row.snn_near,
                    "snn_embedding": row.snn_embedding,
                    "frac_network_grounded": row.frac_network_grounded,
                    "frac_embedding_grounded": row.frac_embedding_grounded,
                    "frac_unexplained": row.frac_unexplained,
                }
                for row in self.deciles
            ],
        }

    def to_csv(self) -> str:
        lines = ["decile,snn_grounded,snn_near,snn_embedding,frac_network_grounded,n_hits"]
        for row in self.deciles:
            lines.append(
                f"{row.decile},{format_float(row.snn_grounded)},{format_float(row.snn_near)},"
                f"{format_float(row.snn_embedding)},{format_float(row.frac_network_grounded)},"
                f"{row.n_hits}"
            )
        return "".join(line + "\n" for line in lines)


def select_hits(records, cutoff: int = 10, mode: str = "filtered") -> list:
    """Distinct fold triples whose rank in either direction is within cutoff."""
    check_mode(mode)
    hits = []
    seen = set()
    for rec in records:
        if rec.rank(mode) <= cutoff and (rec.h, rec.r, rec.t) not in seen:
            seen.add((rec.h, rec.r, rec.t))
            hits.append((rec.h, rec.r, rec.t))
    return hits


def _decile_of_label(label: str) -> int:
    if not label.startswith("d"):
        raise ValueError(f"relation label {label!r} is not a decile label")
    return int(label[1:])


def analyze_predictions(params: ModelParams, kg: KnowledgeGraph, hits,
                        knn_k: int = 50, tau: float = 0.0) -> SNNReport:
    """SNN per source for each hit (h, r, t), aggregated per decile.

    Classification per hit: network-grounded when the same- or near-decile
    SNN exceeds tau, else embedding-grounded when the embedding SNN exceeds
    tau, else unexplained. Per decile the three fractions sum to one.
    """
    if np.isnan(tau):
        raise ValueError("snn tau must be a number, got nan")
    report = SNNReport(knn_k=knn_k, tau=tau)
    if not hits:
        return report
    n_deciles = kg.n_base_relations
    transforms: dict = {}
    knn_cache: dict = {}

    def knn_of(rid: int, entity: int) -> set:
        key = (rid, entity)
        if key not in knn_cache:
            if rid not in transforms:
                transforms[rid] = transform_embeddings(params, rid)
            knn_cache[key] = knn_embedding(transforms[rid], entity, knn_k)
        return knn_cache[key]

    hit_deciles = [_decile_of_label(kg.relations.label_of(r)) for _, r, _ in hits]
    near_of = {d: _near_deciles(d, n_deciles) for d in hit_deciles}
    index = decile_adjacency(kg, set(near_of).union(*near_of.values()))

    rows: dict[int, list] = {}
    for (h, r, t), decile in zip(hits, hit_deciles):
        grounded = snn(_neighbors(index, h, [decile]), _neighbors(index, t, [decile]))
        near = snn(_neighbors(index, h, near_of[decile]), _neighbors(index, t, near_of[decile]))
        embedding = snn(knn_of(r, h), knn_of(r, t))
        if grounded > tau or near > tau:
            klass = "network"
        elif embedding > tau:
            klass = "embedding"
        else:
            klass = "unexplained"
        rows.setdefault(decile, []).append((grounded, near, embedding, klass))

    for decile in sorted(rows):
        entries = rows[decile]
        n = len(entries)
        klasses = [e[3] for e in entries]
        report.deciles.append(
            DecileSNN(
                decile=decile,
                n_hits=n,
                snn_grounded=float(np.mean([e[0] for e in entries])),
                snn_near=float(np.mean([e[1] for e in entries])),
                snn_embedding=float(np.mean([e[2] for e in entries])),
                frac_network_grounded=klasses.count("network") / n,
                frac_embedding_grounded=klasses.count("embedding") / n,
                frac_unexplained=klasses.count("unexplained") / n,
            )
        )
    return report


def asymmetry_index(M: np.ndarray) -> float:
    """||M - M^T||_F / ||M||_F, in [0, 2]; defined as 0 for a zero matrix."""
    norm = float(np.linalg.norm(M))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(M - M.T) / norm)


def relation_matrix_csv(M: np.ndarray) -> str:
    """Full-precision CSV of a relation matrix (one row per line)."""
    return "".join(
        ",".join(format_float(x) for x in row) + "\n" for row in np.asarray(M)
    )


def parse_relation_matrix_csv(text: str) -> np.ndarray:
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in text.splitlines()
        if line.strip()
    ]
    return np.array(rows, dtype=np.float64)


def export_relation_heatmaps(params: ModelParams, kg: KnowledgeGraph, out_dir: str) -> dict:
    """Write relmat_d<k>.csv per base decile; returns label -> asymmetry index."""
    import os

    from affinitykg.util import atomic_write_text

    os.makedirs(out_dir, exist_ok=True)
    indices = {}
    for rid in range(kg.n_base_relations):
        label = kg.relations.label_of(rid)
        M = relation_matrix(params, rid)
        atomic_write_text(os.path.join(out_dir, f"relmat_{label}.csv"), relation_matrix_csv(M))
        indices[label] = asymmetry_index(M)
    return indices
