"""Ranking evaluation: per-triple ranks, hits@n, MRR, per-relation breakdowns.

Every evaluation fold triple is ranked in both directions: the tail is ranked
against all entities for the (head, relation) query, and the head against all
entities for the (tail, reciprocal-relation) query. Filtered ranking removes
every other entity known to complete the query in any fold, never the target.

Ties rank pessimistically: a candidate scoring equal to the target counts as
ranked above it, so a constant scorer cannot look good.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from affinitykg.errors import ConsistencyError
from affinitykg.kg import FOLD_FILES, KnowledgeGraph, KnownTrueSet
from affinitykg.models import score_queries
from affinitykg.util import csv_text

HIST_MAX_RANK = 10
MODES = ("filtered", "raw")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown ranking mode {mode!r}; expected {'|'.join(MODES)}")
    return mode


@dataclass(frozen=True)
class RankRecord:
    h: int
    r: int          # base relation id
    t: int
    direction: str  # "tail" (predicting t) or "head" (predicting h)
    raw_rank: int
    filtered_rank: int

    def rank(self, mode: str) -> int:
        return self.filtered_rank if check_mode(mode) == "filtered" else self.raw_rank


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
    # The candidates not scoring below the target, itself included. Every
    # comparison with NaN is false, so a NaN competitor counts and a NaN
    # target counts every candidate.
    not_below = ~(scores < scores[target])
    if check_mode(mode) == "filtered":
        not_below[list(filter_set)] = False
        not_below[target] = True
    return int(np.count_nonzero(not_below))


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


def compute_ranks(params, kg: KnowledgeGraph, fold: str = "test") -> list:
    """Raw and filtered ranks for both directions of every fold triple; an
    empty fold is a ValueError naming its file."""
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
    known = KnownTrueSet(kg)
    n_base = kg.n_base_relations
    # Per triple, the tail query (h, r) ranks t and the head query (t, r + n_base) ranks h.
    rankings = [(h, r, t, direction, query, rel, target)
                for h, r, t in getattr(kg, fold).tolist()
                for direction, query, rel, target in (("tail", h, r, t),
                                                      ("head", t, r + n_base, h))]
    scored = score_queries(params, ((query, rel) for *_, query, rel, _ in rankings))
    return [RankRecord(h, r, t, direction, rank_of_target(scores, target, mode="raw"),
                       rank_of_target(scores, target, known.tails_of(query, rel)))
            for (h, r, t, direction, query, rel, target), scores in zip(rankings, scored)]


def summarize(records, mode: str = "filtered") -> MetricsReport:
    if not records:
        raise ValueError("no rank records to summarize")
    ranks = np.array([rec.rank(mode) for rec in records])
    hist = [int(np.count_nonzero(ranks == k)) for k in range(1, HIST_MAX_RANK + 1)]
    return MetricsReport(
        hits1=hits_at(ranks, 1),
        hits3=hits_at(ranks, 3),
        hits10=hits_at(ranks, 10),
        mrr=mrr(ranks),
        n=len(records),
        hits_per_rank=hist,
    )


def evaluate(params, kg: KnowledgeGraph, mode: str = "filtered",
             fold: str = "test") -> MetricsReport:
    """MetricsReport over a fold, with per-relation sub-reports by base label."""
    records = compute_ranks(params, kg, fold)
    report = summarize(records, mode)
    by_relation: dict = {}
    for rec in records:
        by_relation.setdefault(kg.relations.label_of(rec.r), []).append(rec)
    report.per_relation = {
        label: summarize(recs, mode) for label, recs in by_relation.items()
    }
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
