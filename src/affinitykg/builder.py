"""From individual name records to a decile-stratified affinity triple set.

Pipeline: normalize SES scores to [0, 100], assign equal-count deciles, count
surname co-occurrences per decile, drop pairs whose total weight is below the
random-co-occurrence threshold, drop rare surnames, prune the periphery with a
k-core pass, and emit one triple per surviving (pair, decile).

The co-occurrence threshold k * n_s1 * n_s2 / N is k times the expected count
under random pairing, so surviving edges indicate genuine affinity.
"""

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from affinitykg.errors import ParseError
from affinitykg.util import open_text

RECORDS_HEADER = ["paternal", "maternal", "ses", "block"]
# A label triples.tsv cannot carry: the file is TAB-separated, one triple per
# line, and a line starting with '#' is a comment.
_UNSTORABLE_LABEL = re.compile(r"^#|[\t\r\n]")


@dataclass(frozen=True)
class IndividualRecord:
    paternal: str
    maternal: str
    ses_raw: float
    block_id: str


@dataclass(frozen=True)
class BuilderConfig:
    k_security: float = 20.0
    min_occurrences: int = 20
    kcore_k: int = 2
    n_deciles: int = 10

    def __post_init__(self):
        if self.k_security <= 1:
            raise ValueError("k_security must exceed 1")
        if self.min_occurrences < 0 or self.kcore_k < 0:
            raise ValueError("filter thresholds must be non-negative")
        if self.n_deciles < 1:
            raise ValueError("n_deciles must be positive")


@dataclass
class PairTable:
    """Per-(pair, decile) weights plus the marginals the filters need."""

    weights: dict  # (s1, s2) canonical -> {decile: count}
    n_s: dict      # surname -> number of individuals bearing it
    n_total: int   # individuals counted


@dataclass
class BuildReport:
    n_records: int = 0
    n_pairs_counted: int = 0
    n_pairs_after_mateos: int = 0
    n_pairs_after_rare: int = 0
    n_nodes: int = 0
    n_pairs: int = 0
    n_triples: int = 0
    avg_degree: float = 0.0
    decile_fractions: dict = field(default_factory=dict)
    degree_histogram: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "records": self.n_records,
            "pairs_counted": self.n_pairs_counted,
            "pairs_after_mateos": self.n_pairs_after_mateos,
            "pairs_after_rare_filter": self.n_pairs_after_rare,
            "nodes": self.n_nodes,
            "pairs": self.n_pairs,
            "triples": self.n_triples,
            "avg_degree": self.avg_degree,
            "decile_fractions": {str(k): v for k, v in sorted(self.decile_fractions.items())},
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
        }


def read_records_csv(path: str) -> list[IndividualRecord]:
    """Load `paternal,maternal,ses,block` rows; surnames are case-folded.

    A surname that triples.tsv could not carry (see _UNSTORABLE_LABEL) is a
    ParseError naming its line.
    """
    records = []
    storable = set()  # surnames already checked against _UNSTORABLE_LABEL
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != RECORDS_HEADER:
            raise ParseError(f"expected header {','.join(RECORDS_HEADER)!r}", 1, path)
        for n, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", n, path)
            paternal, maternal, ses, block = row
            paternal, maternal = paternal.strip().casefold(), maternal.strip().casefold()
            if not paternal or not maternal:
                raise ParseError("empty surname", n, path)
            if paternal not in storable or maternal not in storable:
                for surname in (paternal, maternal):
                    if _UNSTORABLE_LABEL.search(surname):
                        raise ParseError(f"surname {surname!r} starts with '#' or contains "
                                         "TAB, CR or LF", n, path)
                storable.update((paternal, maternal))
            try:
                ses_value = float(ses)
            except ValueError:
                raise ParseError(f"bad SES value {ses!r}", n, path) from None
            if not math.isfinite(ses_value):
                raise ParseError(f"non-finite SES value {ses!r}", n, path)
            records.append(
                IndividualRecord(paternal, maternal, ses_value, block.strip())
            )
    return records


def normalize_ses(values) -> np.ndarray:
    """Min-max rescale raw SES scores to the range [0, 100].

    The top score can round to just above 100; the result is clipped, which
    changes no value inside the range.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least two SES values")
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise ValueError("degenerate SES range: all values equal")
    return np.clip(100.0 * (x - lo) / (hi - lo), 0.0, 100.0)


def quantile_boundaries(normalized, n_deciles: int = 10) -> np.ndarray:
    """Equal-count cut points: the n_deciles-1 inner quantiles of the scores."""
    qs = np.arange(1, n_deciles) / n_deciles
    boundaries = np.quantile(np.asarray(normalized, dtype=np.float64), qs)
    if not np.all(np.diff(boundaries) > 0):
        raise ValueError("degenerate SES distribution: quantile boundaries not distinct")
    return boundaries


def assign_deciles(normalized, boundaries) -> np.ndarray:
    """Decile 1..n per normalized score; intervals are [b, b') with the top closed."""
    z = np.asarray(normalized, dtype=np.float64)
    if np.any(z < 0.0) or np.any(z > 100.0):
        raise ValueError("normalized scores outside [0, 100]")
    return np.searchsorted(np.asarray(boundaries, dtype=np.float64), z, side="right") + 1


def count_pairs(records, deciles) -> PairTable:
    """Tally co-occurrence weights per (canonical pair, decile).

    Surname order within a record is ignored. n_s counts each individual
    bearing a surname once, whether in the paternal or maternal slot; a person
    with identical surnames contributes to n_s but to no pair.
    """
    weights: dict = {}
    n_s: Counter = Counter()
    for record, decile in zip(records, deciles):
        n_s[record.paternal] += 1
        if record.maternal != record.paternal:
            n_s[record.maternal] += 1
            pair = (min(record.paternal, record.maternal), max(record.paternal, record.maternal))
            by_decile = weights.get(pair)
            if by_decile is None:
                by_decile = weights[pair] = Counter()
            by_decile[int(decile)] += 1
    return PairTable(weights=weights, n_s=dict(n_s), n_total=len(records))


def mateos_filter(pairs: dict, n_s: dict, n_total: int, k_security: float) -> dict:
    """Drop every pair whose total weight is below k * n_s1 * n_s2 / N."""
    if n_total <= 0:
        raise ValueError("population size must be positive")
    kept = {}
    for pair, by_decile in pairs.items():
        s1, s2 = pair
        threshold = k_security * n_s[s1] * n_s[s2] / n_total
        if sum(by_decile.values()) >= threshold:
            kept[pair] = by_decile
    return kept


def min_occurrence_filter(pairs: dict, n_s: dict, min_occurrences: int) -> dict:
    """Drop every pair touching a surname borne by fewer than min_occurrences people."""
    return {
        pair: by_decile
        for pair, by_decile in pairs.items()
        if n_s[pair[0]] >= min_occurrences and n_s[pair[1]] >= min_occurrences
    }


def kcore_prune(pairs: dict, k: int):
    """Keep only pairs whose endpoints survive the k-core of the collapsed graph.

    The collapsed graph is simple and undirected (one edge per pair, deciles
    merged). Nodes with degree < k are peeled until a fixpoint; the returned
    pairs are those with both endpoints in the core.
    """
    adjacency: dict[str, set[str]] = {}
    for s1, s2 in pairs:
        adjacency.setdefault(s1, set()).add(s2)
        adjacency.setdefault(s2, set()).add(s1)
    degree = {node: len(nbrs) for node, nbrs in adjacency.items()}
    queue = [node for node, d in degree.items() if d < k]
    removed = set(queue)
    while queue:
        node = queue.pop()
        for nbr in adjacency[node]:
            if nbr in removed:
                continue
            degree[nbr] -= 1
            if degree[nbr] < k:
                removed.add(nbr)
                queue.append(nbr)
    core = set(adjacency) - removed
    kept = {pair: by_decile for pair, by_decile in pairs.items()
            if pair[0] in core and pair[1] in core}
    return kept, core


def build(records, config: BuilderConfig = BuilderConfig()):
    """Run the full pipeline and emit (label triples, BuildReport).

    Triples carry relation labels "d1".."d<n_deciles>" and canonically ordered
    surnames; one triple per (surviving pair, decile with weight >= 1).
    """
    report = BuildReport(n_records=len(records))
    normalized = normalize_ses([r.ses_raw for r in records])
    boundaries = quantile_boundaries(normalized, config.n_deciles)
    deciles = assign_deciles(normalized, boundaries)

    table = count_pairs(records, deciles)
    report.n_pairs_counted = len(table.weights)

    # Both filters are per-pair predicates over the same n_s marginals, so
    # their order does not change the surviving pairs.
    pairs = mateos_filter(table.weights, table.n_s, table.n_total, config.k_security)
    report.n_pairs_after_mateos = len(pairs)
    pairs = min_occurrence_filter(pairs, table.n_s, config.min_occurrences)
    report.n_pairs_after_rare = len(pairs)

    pairs, core = kcore_prune(pairs, config.kcore_k)

    triples = []
    decile_counts = Counter()
    degree = Counter()
    for (s1, s2), by_decile in sorted(pairs.items()):
        degree[s1] += 1
        degree[s2] += 1
        for d in sorted(by_decile):
            triples.append((s1, f"d{d}", s2))
            decile_counts[d] += 1

    report.n_nodes = len(core)
    report.n_pairs = len(pairs)
    report.n_triples = len(triples)
    report.avg_degree = (2.0 * len(pairs) / len(core)) if core else 0.0
    report.decile_fractions = {
        f"d{d}": decile_counts.get(d, 0) / len(triples) if triples else 0.0
        for d in range(1, config.n_deciles + 1)
    }
    report.degree_histogram = dict(Counter(degree.values()))
    return triples, report
