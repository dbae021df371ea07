"""Deterministic synthetic data: a planted-pair population and a two-block KG.

The registry behind the real network is private, so everything downstream is
exercised on generated data with known ground truth.

generate_population plants surname communities whose members pair up along a
fixed set of affinity pairs (triads, so the planted graph survives a 2-core
pass on its own); the sidecar lists those pairs for precision/recall scoring.

two_block_kg builds a symmetric two-block knowledge graph whose links are
highly predictable: each block is partitioned into cliques and every clique's
pairs appear under two adjacent decile relations, with low deciles in one
block and high deciles in the other.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from affinitykg import kg as kgmod
from affinitykg.builder import RECORDS_HEADER, Records
from affinitykg.util import atomic_write_text, format_float


@dataclass(frozen=True)
class PopulationSpec:
    n_communities: int = 2
    surnames_per_community: int = 99
    n_individuals: int = 10_000
    intra_bias: float = 0.8
    ses_noise: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.n_communities < 1:
            raise ValueError(f"n_communities must be >= 1, got {self.n_communities}")
        if self.surnames_per_community < 3:
            raise ValueError(f"surnames_per_community must be >= 3, "
                             f"got {self.surnames_per_community}")
        if not 0.0 <= self.intra_bias <= 1.0:
            raise ValueError("intra_bias must lie in [0, 1]")
        if self.n_individuals < 1:
            raise ValueError("n_individuals must be positive")
        if not 0.0 <= self.ses_noise < np.inf:
            raise ValueError(f"ses_noise must be finite and non-negative, got {self.ses_noise}")


def _surname(community: int, index: int) -> str:
    return f"s{community}_{index:03d}"


def planted_pairs(spec: PopulationSpec) -> list[tuple[str, str]]:
    """The planted affinity pairs: disjoint surname triads within each community."""
    pairs = []
    for c in range(spec.n_communities):
        n_triads = spec.surnames_per_community // 3
        for t in range(n_triads):
            trio = [_surname(c, 3 * t + i) for i in range(3)]
            for a, b in itertools.combinations(trio, 2):
                pairs.append((min(a, b), max(a, b)))
    return pairs


def _ses_center(community: int, n_communities: int) -> float:
    if n_communities == 1:
        return 50.0
    return 10.0 + 80.0 * community / (n_communities - 1)


def generate_population(spec: PopulationSpec):
    """Draw individuals; returns (records, block labels, planted pair list).

    Each individual belongs to one community. With probability intra_bias the
    surname pair is one of that community's planted pairs (random slot order);
    otherwise both surnames are uniform over the whole population. SES is the
    community's center plus Gaussian noise.
    """
    rng = np.random.default_rng(spec.seed)
    planted = planted_pairs(spec)
    by_community = [
        [p for p in planted if p[0].startswith(f"s{c}_")]
        for c in range(spec.n_communities)
    ]
    all_surnames = [
        _surname(c, i)
        for c in range(spec.n_communities)
        for i in range(spec.surnames_per_community)
    ]
    ids: dict = {}
    paternals, maternals, ses_values, blocks = [], [], [], []
    for _ in range(spec.n_individuals):
        community = int(rng.integers(spec.n_communities))
        if by_community[community] and rng.random() < spec.intra_bias:
            pair = by_community[community][int(rng.integers(len(by_community[community])))]
            order = int(rng.integers(2))
            paternal, maternal = (pair[0], pair[1]) if order == 0 else (pair[1], pair[0])
        else:
            paternal = all_surnames[int(rng.integers(len(all_surnames)))]
            maternal = all_surnames[int(rng.integers(len(all_surnames)))]
        ses = _ses_center(community, spec.n_communities) + float(rng.normal(0.0, spec.ses_noise))
        paternals.append(ids.setdefault(paternal, len(ids)))
        maternals.append(ids.setdefault(maternal, len(ids)))
        ses_values.append(ses)
        blocks.append(f"c{community}-{int(rng.integers(100)):02d}")
    return Records.intern(list(ids), paternals, maternals, ses_values), blocks, planted


def write_records_csv(path: str, records: Records, blocks: list[str]) -> None:
    labels = records.labels
    lines = [",".join(RECORDS_HEADER)]
    lines += [
        f"{labels[paternal]},{labels[maternal]},{format_float(ses)},{block}"
        for paternal, maternal, ses, block in zip(records.paternal.tolist(),
                                                   records.maternal.tolist(),
                                                   records.ses.tolist(), blocks)
    ]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def two_block_kg(
    seed: int = 0,
    n_entities: int = 200,
    clique_size: int = 14,
    n_deciles: int = 10,
    valid_size: int = 200,
    test_size: int = 200,
) -> kgmod.KnowledgeGraph:
    """Symmetric two-block KG with clique structure for learnability tests.

    Entities are split into two blocks. Each block is carved into cliques of
    clique_size; all pairs inside a clique are connected under two adjacent
    decile relations drawn from the block's half of the decile range (low
    deciles for block 0, high for block 1). The result is split into
    train/valid/test with the given seed.
    """
    if n_entities % 2:
        raise ValueError("n_entities must be even")
    half = n_entities // 2
    labels = [f"e{i:03d}" for i in range(n_entities)]
    rows = []
    for block in range(2):
        lo = 1 if block == 0 else n_deciles // 2 + 1
        hi = n_deciles // 2 if block == 0 else n_deciles
        spans = [(d, d + 1) for d in range(lo, hi)]
        for c in range(half // clique_size):
            start = block * half + c * clique_size
            d1, d2 = spans[c % len(spans)]
            for a, b in itertools.combinations(range(start, start + clique_size), 2):
                if labels[b] < labels[a]:
                    a, b = b, a
                rows += [(a, d1 - 1, b), (a, d2 - 1, b)]
    empty = np.empty((0, 3), dtype=np.int64)
    full = kgmod.KnowledgeGraph(kgmod.Vocab(labels),
                                kgmod.Vocab([f"d{d}" for d in range(1, n_deciles + 1)]),
                                np.array(rows, dtype=np.int64).reshape(-1, 3), empty, empty)
    return kgmod.split(full, valid_size, test_size, seed)
