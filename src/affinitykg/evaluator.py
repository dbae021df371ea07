"""Ranking evaluation: per-triple ranks, hits@n, MRR, per-relation breakdowns.

Every evaluation fold triple is ranked in both directions: the tail is ranked
against all entities for the (head, relation) query, and the head against all
entities for the (tail, reciprocal-relation) query. Filtered ranking removes
every other entity known to complete the query in any fold, never the target.

Ties rank pessimistically: a candidate scoring equal to the target counts as
ranked above it, so a constant scorer cannot look good.

compute_ranks scores a fold in blocks of queries, in relation order, bounded
by RANK_BLOCK_BYTES, and ranks each block with array operations: one
comparison with the targets' scores, and one boolean filter block from
KnownTrueSet.drop_block. It returns one rank table, a record array with a row
per query; ranks_of picks a mode's rank column, which summarize, evaluate and
snn.select_hits read whole. rank_of_target ranks one score vector by the same rule.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from affinitykg.errors import ConsistencyError
from affinitykg.kg import FOLD_FILES, KnowledgeGraph, KnownTrueSet
from affinitykg.models import score_queries
from affinitykg.util import csv_text

HIST_MAX_RANK = 10
# Bytes of each block of scores compute_ranks ranks at once, a float64 row per query:
# 109 queries at 1200 entities. On a 2-vCPU VM, ranking 200 queries over 1200 entities
# (d_e=32) took a median 11.4-12.2 ms at every budget from 256 KB to 2 MB; a block
# holds its scores, its filter and its comparison (1.25x the budget).
RANK_BLOCK_BYTES = 1 << 20
MODES = ("filtered", "raw")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown ranking mode {mode!r}; expected {'|'.join(MODES)}")
    return mode


def ranks_of(table, mode: str) -> np.ndarray:
    """The rank column of a compute_ranks table that the mode selects."""
    return table[f"{check_mode(mode)}_rank"]


@dataclass
class MetricsReport:
    hits1: float
    hits3: float
    hits10: float
    mrr: float
    n: int
    hits_per_rank: list          # counts at ranks 1..10
    per_relation: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report's fields, recursively; an empty per_relation is left out."""
        return asdict(self, dict_factory=lambda items: {
            key: value for key, value in items if value or key != "per_relation"})


def _ranks(scores: np.ndarray, targets: np.ndarray, drop: np.ndarray) -> tuple:
    """Raw and filtered ranks of targets[i] in row i of a score block: 1 +
    better + ties (excluding the target itself). The filtered rank ignores
    the candidates set in the boolean block `drop`, except the target, which
    is always ranked; drop's target cells are cleared in place.
    """
    rows = np.arange(len(targets))
    # The candidates not scoring below the target, itself included. Every
    # comparison with NaN is false, so a NaN competitor counts and a NaN
    # target counts every candidate.
    not_below = ~(scores < scores[rows, targets][:, None])
    raw = np.count_nonzero(not_below, axis=1)
    drop[rows, targets] = False
    not_below &= ~drop
    return raw, np.count_nonzero(not_below, axis=1)


def rank_of_target(scores, target: int, filter_set=frozenset(), mode: str = "filtered") -> int:
    """Rank of the target among candidates: 1 + better + ties (excluding itself).

    In filtered mode every other known-true candidate is ignored; the target
    itself is always ranked. Filtering out the target is a contract violation.
    A NaN competitor counts as better than the target, and a NaN target ranks
    last among the candidates left after filtering.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target < scores.shape[0]:
        raise IndexError(f"target {target} out of range")
    # In raw mode nothing is dropped, so the filtered count is the raw rank.
    drop = np.zeros((1, scores.shape[0]), dtype=bool)
    if check_mode(mode) == "filtered":
        drop[0, list(filter_set)] = True
    return int(_ranks(scores[None], np.array([target]), drop)[1][0])


def hits_at(ranks, n: int) -> float:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("empty rank list")
    return float(np.count_nonzero(ranks <= n) / ranks.size)


def mrr(ranks) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("empty rank list")
    return float(np.mean(1.0 / ranks))


def compute_ranks(params, kg: KnowledgeGraph, fold: str = "test",
                  known: KnownTrueSet | None = None) -> np.recarray:
    """Raw and filtered ranks for both directions of every fold triple, tail
    query then head query, in fold order, as a record array with the columns
    h, r (base relation id), t, direction ("tail" ranks t, "head" ranks h),
    raw_rank and filtered_rank; an empty fold is a ValueError naming its file.
    known is kg's KnownTrueSet, built here when not given."""
    if not len(getattr(kg, fold)):
        raise ValueError(f"{FOLD_FILES[fold]}: the {fold} fold is empty")
    if params.n_entities != kg.n_entities:
        raise ConsistencyError(
            f"parameters cover {params.n_entities} entities, graph has {kg.n_entities}"
        )
    if params.n_relations != 2 * kg.n_base_relations:
        raise ConsistencyError(
            f"parameters cover {params.n_relations} relations, expected "
            f"{2 * kg.n_base_relations} (base + reciprocal)"
        )
    if known is None:
        known = KnownTrueSet(kg)
    triples = getattr(kg, fold)
    h, r, t = triples.T
    # Per triple, the tail query (h, r) ranks t and the head query (t, r + n_base) ranks h.
    heads = np.stack([h, t], axis=1).ravel()
    rels = np.stack([r, r + kg.n_base_relations], axis=1).ravel()
    targets = np.stack([t, h], axis=1).ravel()
    ranks = np.empty((2, heads.size), dtype=np.int64)  # raw, filtered
    # Blocks run in relation order, so a Tucker relation matrix outlives only
    # the blocks its queries span and is contracted once.
    order = np.argsort(rels, kind="stable")
    per_block = max(1, RANK_BLOCK_BYTES // (8 * params.n_entities))
    matrices: dict = {}
    for start in range(0, order.size, per_block):
        rows = order[start:start + per_block]
        scores = score_queries(params, heads[rows], rels[rows], matrices)
        ranks[:, rows] = _ranks(scores, targets[rows], known.drop_block(heads[rows], rels[rows]))
        last = rels[rows[-1]]
        matrices = {rel: m for rel, m in matrices.items() if rel == last}
    return np.rec.fromarrays(
        [*np.repeat(triples, 2, axis=0).T, np.tile(["tail", "head"], len(triples)), *ranks],
        names="h,r,t,direction,raw_rank,filtered_rank")


def summarize(table, mode: str = "filtered") -> MetricsReport:
    """MetricsReport over the rows of a compute_ranks table."""
    ranks = ranks_of(table, mode)
    if not ranks.size:
        raise ValueError("no ranks to summarize")
    hist = [int(np.count_nonzero(ranks == k)) for k in range(1, HIST_MAX_RANK + 1)]
    return MetricsReport(
        hits1=hits_at(ranks, 1),
        hits3=hits_at(ranks, 3),
        hits10=hits_at(ranks, 10),
        mrr=mrr(ranks),
        n=ranks.size,
        hits_per_rank=hist,
    )


def evaluate(params, kg: KnowledgeGraph, mode: str = "filtered", fold: str = "test",
             known: KnownTrueSet | None = None) -> MetricsReport:
    """MetricsReport over a fold, with per-relation sub-reports by base label;
    known is passed to compute_ranks."""
    table = compute_ranks(params, kg, fold, known)
    report = summarize(table, mode)
    report.per_relation = {kg.relations.label_of(r): summarize(table[table.r == r], mode)
                           for r in np.unique(table.r).tolist()}
    return report


def per_relation_csv(report: MetricsReport) -> str:
    """CSV table `relation,hits1,hits3,hits10,mrr,n` over the sub-reports."""
    columns = ("hits1", "hits3", "hits10", "mrr", "n")
    return csv_text([("relation", *columns)] + [
        (label, *(getattr(sub, c) for c in columns))
        for label, sub in sorted(report.per_relation.items())])


def random_top_n_probability(n_e: int, degree: int) -> float:
    """Chance that a uniformly random top-`degree` list is perfectly precise.

    Product over i = 1..degree of (degree + 1 - i) / (n_e - i), evaluated in
    log space so large vocabularies cannot underflow the partial products.
    """
    if degree >= n_e:
        raise ValueError("degree must be smaller than the entity count")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    log_p = 0.0
    for i in range(1, degree + 1):
        log_p += math.log(degree + 1 - i) - math.log(n_e - i)
    return math.exp(log_p)
