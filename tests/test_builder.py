"""Affinity-builder stages against brute-force recounts, a peeling oracle and
the row-by-row reader they replace."""

import csv
import math
import os
import re
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from affinitykg.builder import (
    RECORDS_HEADER,
    BuilderConfig,
    Records,
    assign_deciles,
    build,
    count_pairs,
    kcore_prune,
    mateos_filter,
    mateos_keeps,
    min_occurrence_filter,
    normalize_ses,
    quantile_boundaries,
    read_records_csv,
)
from affinitykg.errors import ParseError
from affinitykg.synthetic import PopulationSpec, generate_population, write_records_csv
from affinitykg.util import open_text


class TestNormalizeSes:
    def test_endpoints_and_midpoint(self):
        z = normalize_ses([10.0, 20.0, 30.0])
        assert z[0] == 0.0 and z[2] == 100.0 and z[1] == pytest.approx(50.0)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        z = normalize_ses(x)
        assert np.all((z >= 0) & (z <= 100))
        assert np.all(np.argsort(z) == np.argsort(x))

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            normalize_ses([5.0, 5.0, 5.0])

    def test_range_whose_width_overflows_is_named(self):
        with pytest.raises(ValueError, match=r"SES range \[-1e\+308, 1e\+308\] is too wide"):
            normalize_ses([-1e308, 0.0, 1e308])
        # A range just inside the overflow still rescales to its endpoints.
        assert normalize_ses([0.0, 1.7e306]).tolist() == [0.0, 100.0]

    def test_top_score_is_exactly_100(self):
        # 100 * (hi - lo) / (hi - lo) rounds to 100.00000000000001 here.
        assert normalize_ses([-28.050229646245484, 144.75867847299656]).max() == 100.0


class TestDeciles:
    boundaries = np.arange(10.0, 100.0, 10.0)

    def test_below_first_boundary(self):
        assert assign_deciles([0.0, 9.99], self.boundaries).tolist() == [1, 1]

    def test_top_is_closed(self):
        assert assign_deciles([100.0], self.boundaries).tolist() == [10]

    def test_boundary_belongs_to_upper_interval(self):
        assert assign_deciles([10.0, 90.0], self.boundaries).tolist() == [2, 10]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            assign_deciles([50.0, -0.1], self.boundaries)
        with pytest.raises(ValueError):
            assign_deciles([100.1], self.boundaries)

    def test_quantile_boundaries_give_equal_counts(self):
        rng = np.random.default_rng(42)
        z = normalize_ses(rng.uniform(size=20000))
        boundaries = quantile_boundaries(z, 10)
        deciles = assign_deciles(z, boundaries)
        fractions = np.bincount(deciles, minlength=11)[1:] / z.size
        # Empirical-quantile cuts on a continuous sample give ~10% per bin.
        assert np.all(np.abs(fractions - 0.1) < 0.01)


def make_records(*pairs):
    """Records of one individual per (paternal, maternal) surname pair, with
    SES scores 0, 1, 2, ... in that order."""
    ids = {}
    paternal = [ids.setdefault(p, len(ids)) for p, _ in pairs]
    maternal = [ids.setdefault(m, len(ids)) for _, m in pairs]
    return Records.intern(list(ids), paternal, maternal, np.arange(len(pairs), dtype=np.float64))


def pair_table(records, deciles):
    """count_pairs as (weights, n_s, n_total) keyed by labels:
    weights maps (s1, s2) to {decile: count}, n_s a surname to its bearers."""
    counts = count_pairs(records, deciles)
    labels = records.labels
    weights = {}
    for s1, s2, decile, weight in zip(*(column.tolist() for column in counts[1:])):
        weights.setdefault((labels[s1], labels[s2]), {})[decile] = weight
    n_s = {labels[i]: n for i, n in enumerate(counts.n_s.tolist()) if n}
    return weights, n_s, len(records)


class TestCountPairs:
    def test_single_individual(self):
        weights, n_s, n_total = pair_table(make_records(("perez", "soto")), [3])
        assert weights == {("perez", "soto"): {3: 1}}
        assert n_s == {"perez": 1, "soto": 1}
        assert n_total == 1

    def test_order_insensitive(self):
        weights, _, _ = pair_table(make_records(("soto", "perez"), ("perez", "soto")), [3, 3])
        assert weights[("perez", "soto")][3] == 2

    def test_homonymous_counts_once_no_pair(self):
        weights, n_s, _ = pair_table(make_records(("soto", "soto")), [1])
        assert weights == {} and n_s == {"soto": 1}

    def test_n_s_matches_flat_recount(self):
        rng = np.random.default_rng(1)
        names = [f"n{i}" for i in range(20)]
        pairs = [(names[rng.integers(20)], names[rng.integers(20)]) for _ in range(500)]
        deciles = rng.integers(1, 11, size=500)
        _, n_s, _ = pair_table(make_records(*pairs), deciles)
        for name in names:
            expected = sum(1 for pair in pairs if name in pair)
            assert n_s.get(name, 0) == expected

    def test_rows_sorted_by_label_pair_then_decile(self):
        rng = np.random.default_rng(2)
        names = ["b", "a", "ab", "B", "ä", "z"]
        pairs = [(names[rng.integers(6)], names[rng.integers(6)]) for _ in range(300)]
        deciles = rng.integers(1, 11, size=300)
        records = make_records(*pairs)
        counts = count_pairs(records, deciles)
        rows = [(records.labels[a], records.labels[b], d)
                for a, b, d in zip(counts.s1.tolist(), counts.s2.tolist(), counts.decile.tolist())]
        expected = Counter((min(p, m), max(p, m), int(d))
                           for (p, m), d in zip(pairs, deciles) if p != m)
        assert rows == sorted(expected)
        assert counts.weight.tolist() == [expected[row] for row in rows]


class TestMateosFilter:
    def test_hand_arithmetic_threshold(self):
        # k=20, n_s1=200, n_s2=100, N=100000 -> threshold 4.0
        n_s = {"a": 200, "b": 100}
        removed = mateos_filter({("a", "b"): {1: 3}}, n_s, 100_000, 20.0)
        kept = mateos_filter({("a", "b"): {1: 4}}, n_s, 100_000, 20.0)
        assert removed == {} and ("a", "b") in kept

    def test_weight_spread_across_deciles_summed(self):
        n_s = {"a": 200, "b": 100}
        kept = mateos_filter({("a", "b"): {1: 2, 5: 2}}, n_s, 100_000, 20.0)
        assert ("a", "b") in kept

    def test_huge_weight_kept(self):
        # Expected random co-occurrence 100*100/100000 = 0.1; weight 1000 dwarfs it.
        kept = mateos_filter({("a", "b"): {1: 1000}}, {"a": 100, "b": 100}, 100_000, 20.0)
        assert ("a", "b") in kept

    def test_symmetric_in_surname_order(self):
        n_s = {"a": 137, "b": 61}
        pair_ab = mateos_filter({("a", "b"): {1: 2}}, n_s, 5000, 20.0)
        pair_ba = mateos_filter({("b", "a"): {1: 2}}, n_s, 5000, 20.0)
        assert bool(pair_ab) == bool(pair_ba)

    def test_random_pairing_mostly_removed(self):
        # Under random surname pairing nearly every pair sits at its expected
        # co-occurrence, far below 20x expectation.
        rng = np.random.default_rng(7)
        names = [f"n{i:03d}" for i in range(50)]
        pairs = []
        for _ in range(20000):
            a, b = rng.integers(0, 50, size=2)
            pairs.append((names[a], names[b]))
        weights, n_s, n_total = pair_table(make_records(*pairs), np.ones(len(pairs), dtype=int))
        kept = mateos_filter(weights, n_s, n_total, 20.0)
        assert len(kept) / len(weights) < 0.01


class TestMinOccurrenceFilter:
    def test_nineteen_bearers_dropped(self):
        assert not min_occurrence_filter(19, 100, 20)

    def test_exactly_twenty_kept(self):
        assert min_occurrence_filter(20, 20, 20)

    def test_zero_threshold_is_identity(self):
        assert min_occurrence_filter(np.array([1, 1]), np.array([1, 1]), 0).tolist() == [True, True]


def peeling_oracle(edges, k):
    """Recompute degrees from scratch every sweep until nothing changes."""
    nodes = {n for e in edges for n in e}
    alive = set(nodes)
    while True:
        degree = {n: 0 for n in alive}
        for a, b in edges:
            if a in alive and b in alive:
                degree[a] += 1
                degree[b] += 1
        doomed = {n for n in alive if degree[n] < k}
        if not doomed:
            return alive
        alive -= doomed


def core_pairs(pairs, core):
    """The pairs with both endpoints in the core."""
    return [pair for pair in pairs if pair[0] in core and pair[1] in core]


class TestKcorePrune:
    def test_path_has_no_2core(self):
        pairs = [("a", "b"), ("b", "c")]
        core = kcore_prune(pairs, 2)
        assert core == set() and core_pairs(pairs, core) == []

    def test_triangle_survives(self):
        pairs = [("a", "b"), ("b", "c"), ("a", "c")]
        core = kcore_prune(iter(pairs), 2)
        assert core == {"a", "b", "c"} and core_pairs(pairs, core) == pairs

    def test_matches_peeling_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n, p = 100, 0.05
            pairs = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        pairs.append((f"v{i:03d}", f"v{j:03d}"))
            assert kcore_prune(pairs, 2) == peeling_oracle(pairs, 2)

    def test_post_core_min_degree(self):
        rng = np.random.default_rng(13)
        pairs = []
        for i in range(60):
            for j in range(i + 1, 60):
                if rng.random() < 0.06:
                    pairs.append((f"v{i:02d}", f"v{j:02d}"))
        core = kcore_prune(pairs, 3)
        kept = core_pairs(pairs, core)
        degree = {}
        for a, b in kept:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(d >= 3 for d in degree.values())
        assert set(degree) == core


class TestBuildPipeline:
    def test_planted_pairs_recovered(self):
        records, _, planted = generate_population(PopulationSpec(seed=5))
        triples, report = build(records, BuilderConfig(k_security=20.0))
        got = {(h, t) for h, r, t in triples}
        tp = len(got & set(planted))
        assert tp / len(got) >= 0.9
        assert tp / len(planted) >= 0.8
        assert report.n_triples == len(triples)

    def test_triple_count_identity(self):
        records, _, _ = generate_population(PopulationSpec(seed=6, n_individuals=5000))
        triples, report = build(records)
        pair_deciles = {}
        for h, r, t in triples:
            pair_deciles.setdefault((h, t), set()).add(r)
        assert report.n_triples == sum(len(ds) for ds in pair_deciles.values())
        assert report.n_pairs == len(pair_deciles)

    def test_decile_fractions_sum_to_one(self):
        records, _, _ = generate_population(PopulationSpec(seed=7, n_individuals=5000))
        _, report = build(records)
        assert sum(report.decile_fractions.values()) == pytest.approx(1.0)

    def test_filter_stages_idempotent(self):
        records, _, _ = generate_population(PopulationSpec(seed=10, n_individuals=5000))
        z = normalize_ses(records.ses)
        deciles = assign_deciles(z, quantile_boundaries(z))
        weights, n_s, n_total = pair_table(records, deciles)
        total = np.array([sum(w.values()) for w in weights.values()])
        n1 = np.array([n_s[a] for a, _ in weights])
        n2 = np.array([n_s[b] for _, b in weights])
        once = mateos_keeps(total, n1, n2, n_total, 20.0)
        assert mateos_keeps(total[once], n1[once], n2[once], n_total, 20.0).all()
        rare_once = once & min_occurrence_filter(n1, n2, 20)
        assert min_occurrence_filter(n1[rare_once], n2[rare_once], 20).all()
        survivors = [pair for pair, kept in zip(weights, rare_once) if kept]
        nodes = kcore_prune(survivors, 2)
        core_once = core_pairs(survivors, nodes)
        nodes2 = kcore_prune(core_once, 2)
        assert nodes2 == nodes and core_pairs(core_once, nodes2) == core_once

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BuilderConfig(k_security=1.0)

    @pytest.mark.parametrize("noise", [float("nan"), -0.5, float("inf")])
    def test_population_rejects_bad_ses_noise(self, noise):
        with pytest.raises(ValueError):
            PopulationSpec(ses_noise=noise)


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        records, blocks, _ = generate_population(PopulationSpec(seed=9, n_individuals=50))
        path = tmp_path / "records.csv"
        write_records_csv(str(path), records, blocks)
        with open(path, encoding="utf-8", newline="") as fh:
            assert [row[3] for row in csv.reader(fh)] == ["block", *blocks]
        back = read_records_csv(str(path))
        assert back.labels == records.labels
        for column in ("paternal", "maternal", "ses"):
            np.testing.assert_array_equal(getattr(back, column), getattr(records, column))
        assert back.paternal.dtype == np.int64 and back.ses.dtype == np.float64

    def test_reader_keeps_no_string_per_row(self, tmp_path):
        # 20000 rows: three int64 or float64 columns are 0.48 MB. Four strings
        # a row, or a block column, would be several times that.
        records, blocks, _ = generate_population(PopulationSpec(seed=7, n_individuals=20_000))
        path = str(tmp_path / "records.csv")
        write_records_csv(path, records, blocks)
        tracemalloc.start()
        try:
            back = read_records_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 20_000
        assert peak < 4_000_000, f"traced peak {peak} B"
        assert held < 1_000_000, f"{held} B still held after the read"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("nope,nope,nope,nope\n")
        with pytest.raises(ParseError):
            read_records_csv(str(path))

    def test_bad_ses_reports_line(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("paternal,maternal,ses,block\nperez,soto,notanumber,b1\n")
        with pytest.raises(ParseError) as err:
            read_records_csv(str(path))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("ses", ["nan", "inf", "-inf"])
    def test_non_finite_ses_reports_line(self, tmp_path, ses):
        path = tmp_path / "records.csv"
        path.write_text(f"paternal,maternal,ses,block\nperez,soto,1.5,b1\nruiz,diaz,{ses},b2\n")
        with pytest.raises(ParseError) as err:
            read_records_csv(str(path))
        assert err.value.line_no == 3

    def test_surnames_casefolded(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("paternal,maternal,ses,block\nPerez,SOTO,1.5,b1\n")
        back = read_records_csv(str(path))
        assert back.labels[back.paternal[0]] == "perez"
        assert back.labels[back.maternal[0]] == "soto"

    @pytest.mark.parametrize("surname", ["#perez", "  #Perez", "pe\tz", "pe\rz", "pe\nz"])
    def test_unstorable_surname_reports_line(self, tmp_path, surname):
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows([RECORDS_HEADER, ["ruiz", "diaz", "1.5", "b1"],
                              ["soto", surname, "2.5", "b1"]])
        with pytest.raises(ParseError) as err:
            read_records_csv(str(path))
        assert err.value.line_no == 3

    def test_inner_hash_accepted(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("paternal,maternal,ses,block\nper#ez,soto,1.5,b1\n")
        back = read_records_csv(str(path))
        assert back.labels[back.paternal[0]] == "per#ez"


# -- the columnar reader against the row-by-row reader it replaced -----------

_ORACLE_UNSTORABLE = re.compile(r"^#|[\t\r\n]")


def oracle_read_records_csv(path):
    """The row-by-row reader, with (paternal, maternal, ses) tuples for its
    per-row records; the block cell is required and dropped."""
    records = []
    storable = set()
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != RECORDS_HEADER:
            raise ParseError(f"expected header {','.join(RECORDS_HEADER)!r}", 1, path)
        for n, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", n, path)
            paternal, maternal, ses, _ = row
            paternal, maternal = paternal.strip().casefold(), maternal.strip().casefold()
            if not paternal or not maternal:
                raise ParseError("empty surname", n, path)
            if paternal not in storable or maternal not in storable:
                for surname in (paternal, maternal):
                    if _ORACLE_UNSTORABLE.search(surname):
                        raise ParseError(f"surname {surname!r} starts with '#' or contains "
                                         "TAB, CR or LF", n, path)
                storable.update((paternal, maternal))
            try:
                ses_value = float(ses)
            except ValueError:
                raise ParseError(f"bad SES value {ses!r}", n, path) from None
            if not math.isfinite(ses_value):
                raise ParseError(f"non-finite SES value {ses!r}", n, path)
            records.append((paternal, maternal, ses_value))
    return records


# Case and whitespace variants of a few surnames, fields csv must quote, and
# surnames the reader rejects; SES strings on both sides of Python's float().
GOOD_SURNAMES = ["Perez", "PEREZ", " perez ", "perez\t", "Soto", "soto ", "so#to", "a,b",
                 '"q"', "Straße", "STRASSE", "ÑANDU", "ñandu"]
BAD_SURNAMES = ["", "  ", "#soto", " #Soto", "x\ny", "ruiz\r", "t\tab"]
GOOD_SES = ["1", "2.5", "-3.25", "1_000", " 5 ", "\t7\n", "1e3", "١٢", "0.1e-2", "+4"]
BAD_SES = ["nan", "-NaN", "1e400", "infinity", "-inf", "junk", "", "0x10", "1e", "١٫٥", "1__0"]


def mostly(common, *rare, odds=10):
    """common, or one of rare about once in `odds` draws."""
    return st.integers(0, odds - 1).flatmap(
        lambda i: st.one_of(*rare) if i == 0 else common)


surnames = mostly(st.sampled_from(GOOD_SURNAMES), st.sampled_from(BAD_SURNAMES),
                  st.text(st.sampled_from("Ab #\t\r\n,\""), max_size=4))
ses_strings = mostly(st.one_of(st.sampled_from(GOOD_SES),
                               st.floats(allow_nan=False, allow_infinity=False).map(repr)),
                     st.sampled_from(BAD_SES))
rows = mostly(st.tuples(surnames, surnames, ses_strings,
                        st.sampled_from(["b1", " b2 ", "c,d", ""])).map(list),
              st.lists(st.sampled_from(["perez", "1.5", "b"]), max_size=6), odds=20)


class TestReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rows, max_size=8))
    def test_same_columns_or_same_error(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(RECORDS_HEADER)
                writer.writerows(body)
            try:
                expected = oracle_read_records_csv(path)
            except ParseError as err:
                with pytest.raises(ParseError) as got:
                    read_records_csv(path)
                assert (str(got.value), got.value.line_no) == (str(err), err.line_no)
                event(str(err).split(": ", 1)[1].split(" ")[0])
                return
            records = read_records_csv(path)
            labels = records.labels
            assert labels == sorted({name for p, m, _ in expected for name in (p, m)})
            assert records.paternal.dtype == records.maternal.dtype == np.int64
            assert records.ses.dtype == np.float64 and len(records) == len(expected)
            got_rows = list(zip([labels[i] for i in records.paternal.tolist()],
                                [labels[i] for i in records.maternal.tolist()],
                                records.ses.tolist()))
            assert got_rows == expected
            event("accepted")

    def test_bad_row_before_a_wrong_field_count_is_reported_first(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("paternal,maternal,ses,block\nperez,soto,oops,b\nruiz,diaz\n")
        with pytest.raises(ParseError, match="bad SES value") as err:
            read_records_csv(str(path))
        assert err.value.line_no == 2


# -- one threshold rule for dicts and arrays ---------------------------------

@st.composite
def populations(draw):
    """(surname pairs, k): a few surnames, self-pairs that only raise N, and a
    k that, half the time, puts one pair's weight exactly at its threshold."""
    names = [f"s{i}" for i in range(draw(st.integers(3, 6)))]
    name = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(name, name), min_size=2, max_size=60))
    pairs += [("filler", "filler")] * draw(st.integers(0, 200))
    weights, n_s = Counter(), Counter()
    for p, m in pairs:
        n_s[p] += 1
        if p != m:
            n_s[m] += 1
            weights[min(p, m), max(p, m)] += 1
    if weights and draw(st.booleans()):
        (s1, s2), w = draw(st.sampled_from(sorted(weights.items())))
        k = w * len(pairs) / (n_s[s1] * n_s[s2])
    else:
        k = draw(st.floats(1.0001, 50.0))
    assume(k > 1)
    return pairs, k


class TestThresholdRule:
    @settings(max_examples=200, deadline=None)
    @given(populations())
    def test_build_keeps_what_mateos_filter_keeps(self, population):
        pairs, k = population
        records = make_records(*pairs)
        z = normalize_ses(records.ses)
        deciles = assign_deciles(z, quantile_boundaries(z, 2))
        weights, n_s, n_total = pair_table(records, deciles)
        expected = mateos_filter(weights, n_s, n_total, k)
        # The rule as first written, evaluated left to right on Python numbers.
        assert set(expected) == {(a, b) for (a, b), w in weights.items()
                                 if sum(w.values()) >= k * n_s[a] * n_s[b] / n_total}
        if any(k * n_s[a] * n_s[b] / n_total == sum(w.values()) for (a, b), w in weights.items()):
            event("a weight equals its threshold")
        triples, report = build(records, BuilderConfig(k_security=k, min_occurrences=0,
                                                       kcore_k=0, n_deciles=2))
        assert report.n_pairs_after_mateos == len(expected)
        assert {(h, t) for h, _, t in triples} == set(expected)

    @pytest.mark.parametrize("weight,kept", [(4, True), (3, False)])
    def test_weight_at_threshold_is_kept(self, weight, kept):
        # k=20, n_s1=n_s2=10, N=500 -> threshold 4.0 exactly.
        pairs = ([("a", "b")] * weight + [("a", "c")] * (10 - weight)
                 + [("b", "d")] * (10 - weight) + [("z", "z")] * (500 - 20 + weight))
        triples, _ = build(make_records(*pairs), BuilderConfig(k_security=20.0, min_occurrences=0,
                                                  kcore_k=0, n_deciles=2))
        assert (("a", "b") in {(h, t) for h, _, t in triples}) == kept
