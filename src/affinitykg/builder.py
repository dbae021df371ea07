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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from affinitykg.errors import ParseError
from affinitykg.kg import UNSTORABLE_LABEL, UNSTORABLE_WHY
from affinitykg.util import open_text

RECORDS_HEADER = ["paternal", "maternal", "ses", "block"]


@dataclass(frozen=True, eq=False)
class Records:
    """Individuals as columns, each surname interned once.

    Ids index `labels`, which is sorted, so comparing two ids compares their
    labels; row i is one individual.
    """

    labels: list[str]       # distinct surnames, sorted
    paternal: np.ndarray    # int64 ids into labels
    maternal: np.ndarray    # int64 ids into labels
    ses: np.ndarray         # float64 raw SES scores

    def __len__(self) -> int:
        return len(self.ses)

    @classmethod
    def intern(cls, names, paternal, maternal, ses) -> "Records":
        """Columns from per-individual ids into names, where names[i] is the
        label of id i and two ids may share a label; the ids are renumbered to
        the sorted distinct labels."""
        labels = sorted(set(names))
        index = {label: i for i, label in enumerate(labels)}
        renumber = np.array([index[name] for name in names], dtype=np.int64)
        ids = [renumber[np.asarray(column, dtype=np.int64)] for column in (paternal, maternal)]
        return cls(labels, *ids, np.asarray(ses, dtype=np.float64))


@dataclass(frozen=True)
class BuilderConfig:
    k_security: float = 20.0
    min_occurrences: int = 20
    kcore_k: int = 2
    n_deciles: int = 10

    def __post_init__(self):
        if not 1 < self.k_security < math.inf:
            raise ValueError(f"k_security must be finite and exceed 1, got {self.k_security}")
        for name in ("min_occurrences", "kcore_k"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.n_deciles < 1:
            raise ValueError("n_deciles must be positive")


class PairCounts(NamedTuple):
    """Co-occurrence weights, one row per (canonical pair, decile) with weight
    >= 1, sorted by (s1, s2, decile), plus the marginals the filters need."""

    n_s: np.ndarray      # individuals bearing each label
    s1: np.ndarray       # lower label id of the pair
    s2: np.ndarray       # higher label id of the pair
    decile: np.ndarray
    weight: np.ndarray


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


def _check_rows(path: str, raw_names, paternal, maternal, ses_strings) -> None:
    """Raise the ParseError of the first bad row, rows counted from line 2;
    paternal and maternal are ids into raw_names, the surnames as read."""
    rows = zip(map(raw_names.__getitem__, paternal), map(raw_names.__getitem__, maternal),
               ses_strings)
    for n, (paternal_raw, maternal_raw, ses) in enumerate(rows, start=2):
        surnames = (paternal_raw.strip().casefold(), maternal_raw.strip().casefold())
        if not all(surnames):
            raise ParseError("empty surname", n, path)
        for surname in surnames:
            if UNSTORABLE_LABEL.search(surname):
                raise ParseError(f"surname {surname!r} {UNSTORABLE_WHY}", n, path)
        try:
            ses_value = float(ses)
        except ValueError:
            raise ParseError(f"bad SES value {ses!r}", n, path) from None
        if not math.isfinite(ses_value):
            raise ParseError(f"non-finite SES value {ses!r}", n, path)


def read_records_csv(path: str) -> Records:
    """Load `paternal,maternal,ses,block` rows; surnames are trimmed and case-folded.

    The block cell is required and dropped. An empty surname, one triples.tsv
    could not carry (see kg.UNSTORABLE_LABEL), or an SES value Python's float()
    rejects or reads as non-finite is a ParseError naming its line, as is a row
    the csv module refuses (say, a field over csv.field_size_limit()). Each raw
    surname gets an id as it is read; each distinct one is normalized and
    checked once and the SES column is parsed in one pass. On a failure the
    rows are rescanned one by one, so the error names the first bad row.
    """
    ids: dict = {}
    paternal, maternal, ses = [], [], []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as err:
            raise ParseError(str(err), 1, path) from None
        if header is None or [h.strip() for h in header] != RECORDS_HEADER:
            raise ParseError(f"expected header {','.join(RECORDS_HEADER)!r}", 1, path)
        try:
            for row in reader:
                if len(row) != 4:
                    raise ParseError(f"expected 4 fields, got {len(row)}", len(ses) + 2, path)
                paternal_raw, maternal_raw, ses_raw, _ = row
                paternal.append(ids.setdefault(paternal_raw, len(ids)))
                maternal.append(ids.setdefault(maternal_raw, len(ids)))
                ses.append(ses_raw)
        except (ParseError, csv.Error, UnicodeDecodeError) as err:
            # A bad row before the one that stopped the reader is reported first.
            _check_rows(path, list(ids), paternal, maternal, ses)
            if isinstance(err, csv.Error):
                raise ParseError(str(err), len(ses) + 2, path) from None
            raise
    names = [raw.strip().casefold() for raw in ids]
    try:
        ses_values = np.fromiter(map(float, ses), np.float64, count=len(ses))
        valid = (all(names) and not any(map(UNSTORABLE_LABEL.search, names))
                 and bool(np.isfinite(ses_values).all()))
    except ValueError:
        valid = False
    if not valid:
        _check_rows(path, list(ids), paternal, maternal, ses)
    return Records.intern(names, paternal, maternal, ses_values)


def normalize_ses(values) -> np.ndarray:
    """Min-max rescale raw SES scores to the range [0, 100].

    The top score can round to just above 100; the result is clipped, which
    changes no value inside the range. A range so wide that 100 times its
    width overflows is refused, since every score would rescale to 0 or NaN.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least two SES values")
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise ValueError("degenerate SES range: all values equal")
    if not math.isfinite(100.0 * (hi - lo)):
        raise ValueError(f"SES range [{lo!r}, {hi!r}] is too wide to rescale to [0, 100]")
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


def count_pairs(records: Records, deciles) -> PairCounts:
    """Tally co-occurrence weights per (canonical pair, decile).

    Surname order within a record is ignored. n_s counts each individual
    bearing a surname once, whether in the paternal or maternal slot; a person
    with identical surnames contributes to n_s but to no pair.
    """
    n_labels = len(records.labels)
    paternal, maternal = records.paternal, records.maternal
    paired = paternal != maternal
    n_s = (np.bincount(paternal, minlength=n_labels)
           + np.bincount(maternal[paired], minlength=n_labels))
    lo = np.minimum(paternal, maternal)[paired]
    hi = np.maximum(paternal, maternal)[paired]
    deciles = np.asarray(deciles, dtype=np.int64)[paired]
    radix = int(deciles.max()) + 1 if deciles.size else 1
    # Label ids follow label order, so sorted codes are in (s1, s2, decile) order.
    codes, weight = np.unique((lo * n_labels + hi) * radix + deciles, return_counts=True)
    pair, decile = np.divmod(codes, radix)
    s1, s2 = np.divmod(pair, n_labels)
    return PairCounts(n_s, s1, s2, decile, weight)


def mateos_keeps(weight, n_s1, n_s2, n_total, k_security):
    """Whether a pair's total weight reaches k * n_s1 * n_s2 / N, k times its
    expected co-occurrence under random pairing; on numbers or arrays."""
    return weight >= k_security * n_s1 * n_s2 / n_total


def min_occurrence_filter(n_s1, n_s2, min_occurrences):
    """Whether each surname of a pair is borne by min_occurrences people or
    more, the rare-surname rule; on numbers or arrays."""
    return (n_s1 >= min_occurrences) & (n_s2 >= min_occurrences)


def mateos_filter(pairs: dict, n_s: dict, n_total: int, k_security: float) -> dict:
    """Drop every pair whose total weight is below k * n_s1 * n_s2 / N."""
    if n_total <= 0:
        raise ValueError("population size must be positive")
    return {(s1, s2): by_decile for (s1, s2), by_decile in pairs.items()
            if mateos_keeps(sum(by_decile.values()), n_s[s1], n_s[s2], n_total, k_security)}


def kcore_prune(pairs, k: int) -> set:
    """The nodes of the k-core of the graph whose edges are the (s1, s2) pairs.

    The graph is simple and undirected (a repeated pair is one edge). Nodes
    with degree < k are peeled until a fixpoint; the rest are returned.
    """
    adjacency: dict = {}
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
    return set(adjacency) - removed


def build(records: Records, config: BuilderConfig = BuilderConfig()):
    """Run the full pipeline and emit (label triples, BuildReport).

    Triples carry relation labels "d1".."d<n_deciles>" and canonically ordered
    surnames; one triple per (surviving pair, decile with weight >= 1), sorted.
    """
    report = BuildReport(n_records=len(records))
    normalized = normalize_ses(records.ses)
    boundaries = quantile_boundaries(normalized, config.n_deciles)
    deciles = assign_deciles(normalized, boundaries)

    counts = count_pairs(records, deciles)
    n_labels = len(records.labels)
    pair = counts.s1 * n_labels + counts.s2
    first = np.flatnonzero(np.diff(pair, prepend=-1))  # each pair's first row
    s1, s2 = counts.s1[first], counts.s2[first]
    n_s1, n_s2 = counts.n_s[s1], counts.n_s[s2]
    report.n_pairs_counted = len(first)

    # Both filters are per-pair predicates over the same n_s marginals, so
    # their order does not change the surviving pairs.
    keep = mateos_keeps(np.add.reduceat(counts.weight, first), n_s1, n_s2,
                        len(records), config.k_security)
    report.n_pairs_after_mateos = int(keep.sum())
    keep &= min_occurrence_filter(n_s1, n_s2, config.min_occurrences)
    report.n_pairs_after_rare = int(keep.sum())

    core = kcore_prune(zip(s1[keep].tolist(), s2[keep].tolist()), config.kcore_k)
    in_core = np.zeros(n_labels, dtype=bool)
    in_core[np.fromiter(core, np.int64, count=len(core))] = True
    keep &= in_core[s1] & in_core[s2]

    rows = np.repeat(keep, np.diff(first, append=len(pair)))
    labels = records.labels
    triples = [(labels[a], f"d{d}", labels[b]) for a, d, b in
               zip(counts.s1[rows].tolist(), counts.decile[rows].tolist(),
                   counts.s2[rows].tolist())]
    decile_counts = np.bincount(counts.decile[rows], minlength=config.n_deciles + 1).tolist()
    degree = np.bincount(s1[keep], minlength=n_labels) + np.bincount(s2[keep], minlength=n_labels)
    degrees, nodes = np.unique(degree[degree > 0], return_counts=True)

    report.n_nodes = len(core)
    report.n_pairs = int(keep.sum())
    report.n_triples = len(triples)
    report.avg_degree = (2.0 * report.n_pairs / len(core)) if core else 0.0
    report.decile_fractions = {
        f"d{d}": decile_counts[d] / len(triples) if triples else 0.0
        for d in range(1, config.n_deciles + 1)
    }
    report.degree_histogram = dict(zip(degrees.tolist(), nodes.tolist()))
    return triples, report
