"""gen-synthetic's bulk replay against the scalar loop it replays.

generate_population decodes numpy's PCG64 stream in bulk (see the comment
block in affinitykg/synthetic.py). scalar_population below is the loop it
replaced, one Generator call per draw: the oracle. The two must agree on every
field, bit for bit, on seeded specs and on crafted streams that force the rare
cases (a Lemire rejection, the ziggurat's slow path and its tail).
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from affinitykg import synthetic, ziggurat
from affinitykg.builder import Records
from affinitykg.synthetic import PopulationSpec, generate_population, planted_pairs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))
import ziggurat_tables  # noqa: E402


def scalar_population(spec: PopulationSpec, rng):
    """The scalar loop generate_population replays, drawing from rng."""
    planted = planted_pairs(spec)
    by_community = [
        [p for p in planted if p[0].startswith(f"s{c}_")]
        for c in range(spec.n_communities)
    ]
    all_surnames = [
        synthetic._surname(c, i)
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
        ses = (synthetic._ses_center(community, spec.n_communities)
               + float(rng.normal(0.0, spec.ses_noise)))
        paternals.append(ids.setdefault(paternal, len(ids)))
        maternals.append(ids.setdefault(maternal, len(ids)))
        ses_values.append(ses)
        blocks.append(f"c{community}-{int(rng.integers(100)):02d}")
    return Records.intern(list(ids), paternals, maternals, ses_values), blocks, planted


def assert_same(got, want):
    (records, blocks, planted), (want_records, want_blocks, want_planted) = got, want
    assert records.labels == want_records.labels
    np.testing.assert_array_equal(records.paternal, want_records.paternal)
    np.testing.assert_array_equal(records.maternal, want_records.maternal)
    assert records.paternal.dtype == records.maternal.dtype == np.int64
    assert list(map(float.hex, records.ses.tolist())) == list(map(float.hex,
                                                                  want_records.ses.tolist()))
    assert blocks == want_blocks
    assert planted == want_planted


@pytest.mark.parametrize("spec", [
    PopulationSpec(),
    PopulationSpec(n_communities=4, surnames_per_community=300, n_individuals=20_000, seed=3101),
    PopulationSpec(n_communities=1, n_individuals=5000, seed=5),
    PopulationSpec(n_communities=3, n_individuals=5000, seed=6),
    PopulationSpec(intra_bias=0.0, n_individuals=5000, seed=2),
    PopulationSpec(intra_bias=1.0, n_individuals=5000, seed=2),
    PopulationSpec(ses_noise=0.0, n_individuals=5000, seed=9),
    PopulationSpec(surnames_per_community=4, n_individuals=5000, seed=11),
    PopulationSpec(n_individuals=1, seed=4),
], ids=["default", "4x300-20k", "one-community", "three-communities", "intra-0", "intra-1",
        "no-noise", "four-surnames", "one-individual"])
def test_replay_matches_the_scalar_loop(spec):
    assert_same(generate_population(spec), scalar_population(spec, np.random.default_rng(spec.seed)))


def crafted(position: int, raw: int) -> dict:
    """A PCG64 state whose stream has raw at `position` (counted from 0); the
    high half of the state there is arbitrary, so the raws around look random."""
    state = ziggurat_tables.state_before(raw, high=0x2F3A9E6D1C5B408)
    inverse = pow(ziggurat_tables.MULTIPLIER, -1, 1 << 128)
    for _ in range(position):
        state = (state - ziggurat_tables.INCREMENT) * inverse & ziggurat_tables.MASK128
    return {"bit_generator": "PCG64",
            "state": {"state": state, "inc": ziggurat_tables.INCREMENT},
            "has_uint32": 0, "uinteger": 0}


def bit_generator(state: dict) -> np.random.PCG64:
    generator = np.random.PCG64()
    generator.state = state
    return generator


LAYER0_TAIL = ((1 << 52) - 1) << 9   # layer 0, rabs past ki[0]: the tail


@pytest.mark.parametrize("spec, position, raw, raws_taken, buffered", [
    # The first individual of several communities draws community from raw
    # 0's low half, u from raw 1, the pair from raw 0's high half, the slot
    # order from raw 2's low half, z from raw 3 and block from raw 2's high half.
    # A community half of 0 is rejected (2**32 % 3 = 1); the next half then
    # starts a raw, so the individual ends with a half buffered.
    (PopulationSpec(n_communities=3, n_individuals=300, seed=1), 0, 7 << 32, 5, 1),
    # Both halves of raw 0 rejected: one raw later, and the halves line up again.
    (PopulationSpec(n_communities=3, n_individuals=300, seed=1), 0, 0, 5, 0),
    # The block half rejected (2**32 % 100 = 96): the last draw takes a new raw.
    (PopulationSpec(n_individuals=300, seed=1), 2, 5, 5, 1),
    # One community: u from raw 0, the two surname draws from raw 1's halves, z
    # from raw 2 and block from raw 3's low half, whose high half is left buffered.
    (PopulationSpec(n_communities=1, n_individuals=300, seed=1), 1, 3 << 32, 4, 0),
    (PopulationSpec(n_communities=1, intra_bias=0.0, n_individuals=300, seed=1), 1, 0, 5, 1),
    # The ziggurat's layer-0 tail and layer 1 (ki[1] = 0, always the slow path).
    (PopulationSpec(n_individuals=300, seed=1), 3, LAYER0_TAIL, None, 0),
    (PopulationSpec(n_communities=1, n_individuals=300, seed=1), 2, 1 | 5 << 9, 5, 1),
], ids=["rejection-shifts-halves", "two-rejections", "block-rejection",
        "one-community-rejection", "one-community-two-rejections", "ziggurat-tail",
        "ziggurat-layer-1"])
def test_replay_matches_the_scalar_loop_on_crafted_streams(spec, position, raw, raws_taken,
                                                           buffered):
    # The crafted raw breaks the first individual as described: a regular one
    # takes 4 raws and leaves a half buffered only with one community.
    state = crafted(position, raw)
    oracle = bit_generator(state)
    scalar_population(replace(spec, n_individuals=1), np.random.Generator(oracle))
    end = oracle.state["state"]["state"]
    taken = next(k for k in range(1, 64) if end == step(state["state"]["state"], k))
    assert (taken if raws_taken else None, oracle.state["has_uint32"]) == (raws_taken, buffered)
    assert (taken, buffered) != (4, int(spec.n_communities == 1))
    assert_same(synthetic._population(spec, bit_generator(state)),
                scalar_population(spec, np.random.Generator(bit_generator(state))))


def step(state: int, k: int) -> int:
    """The PCG64 state k raws after state."""
    for _ in range(k):
        state = (state * ziggurat_tables.MULTIPLIER + ziggurat_tables.INCREMENT) \
            & ziggurat_tables.MASK128
    return state


def test_committed_ziggurat_tables_match_the_installed_numpy():
    ki, wi = ziggurat_tables.derive()
    differ = [layer for layer in range(256)
              if (ki[layer], wi[layer]) != (ziggurat.KI[layer], ziggurat.WI[layer])]
    assert not differ, (
        f"numpy {np.__version__}'s normal() ziggurat differs from affinitykg/ziggurat.py on "
        f"layers {differ[:8]}: its stream changed, so gen-synthetic's replay no longer "
        "matches it (see README.md, gen-synthetic)")
    assert len(ziggurat.KI) == len(ziggurat.WI) == 256
