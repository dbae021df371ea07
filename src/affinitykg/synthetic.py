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

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from affinitykg import kg as kgmod
from affinitykg import ziggurat
from affinitykg.builder import RECORDS_HEADER, Records
from affinitykg.util import atomic_write_text


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


_BLOCKS = 100  # blocks per community in records.csv's block column


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
    community's center plus Gaussian noise. The draws are _draw_individual's,
    one individual after another on default_rng(seed), replayed in bulk.
    """
    return _population(spec, np.random.default_rng(spec.seed).bit_generator)


def _population(spec: PopulationSpec, bit_generator) -> tuple:
    """generate_population, drawing from bit_generator's stream."""
    planted = planted_pairs(spec)
    surnames = [_surname(c, i) for c in range(spec.n_communities)
                for i in range(spec.surnames_per_community)]
    index = {label: i for i, label in enumerate(surnames)}
    pairs = np.array([[(index[a], index[b]) for a, b in planted if a.startswith(f"s{c}_")]
                      for c in range(spec.n_communities)], dtype=np.int64)
    community, paternal, maternal, ses, block = _replay(spec, pairs, bit_generator)
    # Ids index the sorted labels of the surnames drawn, as Records.intern numbers them.
    drawn = np.zeros(len(surnames), dtype=bool)
    drawn[paternal] = drawn[maternal] = True
    labels = sorted(surnames[i] for i in np.flatnonzero(drawn).tolist())
    ids = np.zeros(len(surnames), dtype=np.int64)
    ids[[index[label] for label in labels]] = np.arange(len(labels))
    block_labels = [f"c{c}-{b:02d}" for c in range(spec.n_communities) for b in range(_BLOCKS)]
    blocks = list(map(block_labels.__getitem__, (community * _BLOCKS + block).tolist()))
    return Records(labels, ids[paternal], ids[maternal], ses), blocks, planted


def _draw_individual(rng, spec: PopulationSpec, pairs, centers) -> tuple:
    """One individual's scalar draws from rng: (community, paternal, maternal,
    SES, block), surnames as indices into all communities' surnames.

    pairs[c] lists community c's planted pairs (there is at least one: a
    community has at least one triad) and centers[c] its SES center.
    """
    community = int(rng.integers(spec.n_communities))
    if rng.random() < spec.intra_bias:
        paternal, maternal = pairs[community][int(rng.integers(len(pairs[community])))]
        if int(rng.integers(2)):
            paternal, maternal = maternal, paternal
    else:
        n_surnames = spec.n_communities * spec.surnames_per_community
        paternal = int(rng.integers(n_surnames))
        maternal = int(rng.integers(n_surnames))
    ses = centers[community] + float(rng.normal(0.0, spec.ses_noise))
    return community, paternal, maternal, ses, int(rng.integers(_BLOCKS))


def write_records_csv(path: str, records: Records, blocks: list[str]) -> None:
    labels = records.labels
    rows = zip(records.paternal.tolist(), records.maternal.tolist(), records.ses.tolist(), blocks)
    # SES is a Python float here, so {ses!r} is format_float(ses) without a call per row.
    atomic_write_text(path, ",".join(RECORDS_HEADER) + "\n" + "".join([
        f"{labels[paternal]},{labels[maternal]},{ses!r},{block}\n"
        for paternal, maternal, ses, block in rows]))


# --- replaying _draw_individual's stream in bulk ---
#
# Generator draws from PCG64 64-bit raws (O'Neill 2014). Of those,
# _draw_individual makes three kinds of draw:
# - integers(k), k < 2**32: Lemire's method on one 32-bit half. Halves come
#   from a buffer in the bit generator that outlives the call: a raw's low
#   half is used and its high half kept for the next half-draw. The draw
#   takes another half while (half * k) mod 2**32 < 2**32 mod k (a
#   rejection, rare). integers(1) draws nothing;
# - random(): (raw >> 11) * 2**-53 of one whole raw;
# - normal(): the ziggurat (Marsaglia and Tsang 2000) on one whole raw, on
#   its fast path; the slow path takes more raws.
# An individual is regular when it meets no rejection and no slow path. Its
# draws then sit at fixed offsets from the raw it starts at, fixed by the
# draw template and whether a half is buffered when it starts: a raw-level
# decode of every position finds the irregular ones, runs of regular
# individuals are decoded as arrays, and each irregular one is replayed by
# _draw_individual itself on a PCG64 moved there with advance().

# The draws of one individual, in order; u and z take whole raws, the others halves.
_DRAWS = ("community", "u", "first", "second", "z", "block")
_WHOLE = ("u", "z")
_LOW32 = 0xFFFFFFFF
_RABS = (1 << 52) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_KI = np.array(ziggurat.KI, dtype=np.uint64)
_WI = np.array(ziggurat.WI, dtype=np.float64)


def _layout(draws, buffered: bool) -> tuple:
    """Where a regular individual's draws read their bits, when it starts with
    a half buffered or not: ({draw: (raw offset, shift)}, raws taken, whether a
    half is buffered after it). shift is None for a whole raw, 0 for the low
    half and 32 for the high half; a half buffered at the start is the high
    half of the raw before (offset -1), since every individual ends with a
    half-draw, which leaves buffered only the high half of its last raw."""
    where, taken, filled = {}, 0, -1 if buffered else None
    for draw in draws:
        if draw in _WHOLE:
            where[draw], taken = (taken, None), taken + 1
        elif filled is None:
            where[draw], filled, taken = (taken, 0), taken, taken + 1
        else:
            where[draw], filled = (filled, 32), None
    return where, taken, filled is not None


def _bounded(halves, k: int):
    """integers(k) of 32-bit halves, without Lemire's rejection."""
    return ((halves * k) >> 32).astype(np.int64)


def _replay(spec: PopulationSpec, pairs: np.ndarray, bit_generator) -> tuple:
    """Columns (community, paternal, maternal, SES, block) of spec.n_individuals
    calls of _draw_individual on Generator(bit_generator), bit for bit;
    pairs[c, j] holds the surname indices of community c's j-th planted pair."""
    n, n_surnames = spec.n_individuals, spec.n_communities * spec.surnames_per_community
    centers = [_ses_center(c, spec.n_communities) for c in range(spec.n_communities)]
    draws = _DRAWS if spec.n_communities > 1 else _DRAWS[1:]
    layouts = {b: _layout(draws, b) for b in (False, True)}
    # Regular individuals alternate the buffer when they take an odd number of
    # halves, so one period of positions is one or two individuals long.
    period = 2 if layouts[False][2] else 1
    stride = layouts[False][1] + (layouts[True][1] if period == 2 else 0)

    start = bit_generator.state
    raw = bit_generator.random_raw(n * stride // period + n // 16 + 64)
    # Per raw, by shift, whether it could break an individual: its half
    # rejected under any bound a half-draw uses (Lemire's leftover is the
    # product mod 2**32, so a uint32 product), or the ziggurat's slow path on
    # the whole raw. Index 0 stands for the raw before the stream.
    halves = raw.astype("<u8", copy=False).view("<u4")  # low, high half of each raw
    rejected = np.ones(len(halves) + 2, dtype=bool)
    rejected[2:] = False
    for k in {spec.n_communities, pairs.shape[1], 2, n_surnames, _BLOCKS}:
        if (1 << 32) % k:
            rejected[2:] |= halves * np.uint32(k) < (1 << 32) % k
    slow = np.ones(len(raw) + 1, dtype=bool)
    slow[1:] = ((raw >> 9) & _RABS) >= _KI[raw & 0xFF]
    breaks = {0: rejected[0::2], 32: rejected[1::2], None: slow}

    irregular = {}

    def stop(buffered: bool, first: int) -> int:
        """How many individuals of a buffer state at first, first + stride, ...
        are regular and inside the raws drawn before the first that is not."""
        if buffered not in irregular:
            where, taken, _ = layouts[buffered]
            limit = len(raw) - taken + 1
            flags = np.zeros(limit, dtype=bool)
            for draw, (offset, shift) in where.items():
                if draw != "u":
                    flags |= breaks[shift][1 + offset:1 + offset + limit]
            at = np.flatnonzero(flags)
            irregular[buffered] = (limit, {r: at[at % stride == r].tolist()
                                           for r in range(stride)})
        limit, by_residue = irregular[buffered]
        positions = by_residue[first % stride]
        k = bisect.bisect_left(positions, first)
        end = min(positions[k], limit) if k < len(positions) else limit
        return max(0, -(-(end - first) // stride))

    pair_lists = pairs.tolist()
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = start
    at_raw, inc = 0, start["state"]["inc"]
    runs, replayed = [], {}
    i, position, buffered, carried = 0, 0, False, 0
    while i < n:
        count = n - i
        for k in range(period):
            offset = layouts[buffered][1] if k else 0
            count = min(count, stop(buffered ^ bool(k), position + offset) * period + k)
        runs.append((i, position, buffered, count))
        if count:
            position += count // period * stride + (layouts[buffered][1] if count % period else 0)
            buffered ^= bool(count % period)
            carried = int(raw[position - 1] >> 32)
            i += count
        if i == n:
            break
        # Individual i is irregular: draw it with the scalar calls on the PCG64
        # moved to raw `position`, its buffered half restored, then count the
        # raws it took by stepping the LCG to the state it left.
        generator.bit_generator.advance(position - at_raw)
        state = generator.bit_generator.state
        state["has_uint32"], state["uinteger"] = int(buffered), carried if buffered else 0
        generator.bit_generator.state = state
        replayed[i] = _draw_individual(generator, spec, pair_lists, centers)
        state, lcg = generator.bit_generator.state, state["state"]["state"]
        while lcg != state["state"]["state"]:
            lcg = (lcg * _PCG64_MULTIPLIER + inc) & _MASK128
            position += 1
        at_raw, buffered, carried = position, bool(state["has_uint32"]), state["uinteger"]
        i += 1

    # The regular individuals: run r's j-th starts at its start position plus
    # j // period strides, plus one individual's raws when j is odd.
    runs = np.array(runs, dtype=np.int64).reshape(-1, 4)
    counts = runs[:, 3]
    run = np.repeat(np.arange(len(runs)), counts)
    j = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
    odd = j % period
    taken = np.array([layouts[False][1], layouts[True][1]])
    individual, buffered = runs[run, 0] + j, runs[run, 2]
    position = runs[run, 1] + j // period * stride + odd * taken[buffered]
    buffered = buffered ^ odd
    columns = [np.zeros(n, dtype=np.int64) for _ in range(3)]
    columns += [np.zeros(n), np.zeros(n, dtype=np.int64)]
    for b in (0, 1):
        chosen = buffered == b
        decoded = _decode(raw, position[chosen], layouts[bool(b)][0], spec, pairs, centers)
        for column, values in zip(columns, decoded):
            column[individual[chosen]] = values
    for i, values in replayed.items():
        for column, value in zip(columns, values):
            column[i] = value
    return tuple(columns)


def _decode(raw, at, where, spec: PopulationSpec, pairs: np.ndarray, centers) -> tuple:
    """_replay's columns for regular individuals starting at raws `at`, their
    draws placed by `where` (see _layout)."""

    def bits(draw):
        offset, shift = where[draw]
        word = raw[at + offset]
        return word if shift is None else (word >> shift) & _LOW32

    community = (_bounded(bits("community"), spec.n_communities) if "community" in where
                 else np.zeros(len(at), dtype=np.int64))
    intra = (bits("u") >> 11).astype(np.float64) * 2.0**-53 < spec.intra_bias
    first, second = bits("first"), bits("second")
    pair = pairs[community, _bounded(first, pairs.shape[1])]
    order = _bounded(second, 2)
    rows = np.arange(len(at))
    n_surnames = spec.n_communities * spec.surnames_per_community
    paternal = np.where(intra, pair[rows, order], _bounded(first, n_surnames))
    maternal = np.where(intra, pair[rows, 1 - order], _bounded(second, n_surnames))
    z = bits("z")
    x = ((z >> 9) & _RABS).astype(np.float64) * _WI[z & 0xFF]
    x = np.where(((z >> 8) & 1).astype(bool), -x, x)
    ses = np.array(centers)[community] + (0.0 + spec.ses_noise * x)
    return community, paternal, maternal, ses, _bounded(bits("block"), _BLOCKS)


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
