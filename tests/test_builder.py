"""Affinity-builder stages against brute-force recounts and a peeling oracle."""

import csv

import numpy as np
import pytest

from affinitykg.builder import (
    RECORDS_HEADER,
    BuilderConfig,
    IndividualRecord,
    assign_deciles,
    build,
    count_pairs,
    kcore_prune,
    mateos_filter,
    min_occurrence_filter,
    normalize_ses,
    quantile_boundaries,
    read_records_csv,
)
from affinitykg.errors import ParseError
from affinitykg.synthetic import PopulationSpec, generate_population, write_records_csv


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


def rec(p, m, ses=50.0, block="b0"):
    return IndividualRecord(p, m, ses, block)


class TestCountPairs:
    def test_single_individual(self):
        table = count_pairs([rec("perez", "soto")], [3])
        assert table.weights == {("perez", "soto"): {3: 1}}
        assert table.n_s == {"perez": 1, "soto": 1}
        assert table.n_total == 1

    def test_order_insensitive(self):
        table = count_pairs([rec("soto", "perez"), rec("perez", "soto")], [3, 3])
        assert table.weights[("perez", "soto")][3] == 2

    def test_homonymous_counts_once_no_pair(self):
        table = count_pairs([rec("soto", "soto")], [1])
        assert table.weights == {} and table.n_s == {"soto": 1}

    def test_n_s_matches_flat_recount(self):
        rng = np.random.default_rng(1)
        names = [f"n{i}" for i in range(20)]
        records = [
            rec(names[rng.integers(20)], names[rng.integers(20)]) for _ in range(500)
        ]
        deciles = rng.integers(1, 11, size=500)
        table = count_pairs(records, deciles)
        for name in names:
            expected = sum(1 for r in records if name in (r.paternal, r.maternal))
            assert table.n_s.get(name, 0) == expected


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
        records = []
        for _ in range(20000):
            a, b = rng.integers(0, 50, size=2)
            records.append(rec(names[a], names[b]))
        table = count_pairs(records, np.ones(len(records), dtype=int))
        kept = mateos_filter(table.weights, table.n_s, table.n_total, 20.0)
        assert len(kept) / len(table.weights) < 0.01


class TestMinOccurrenceFilter:
    def test_nineteen_bearers_dropped(self):
        pairs = {("a", "b"): {1: 5}}
        assert min_occurrence_filter(pairs, {"a": 19, "b": 100}, 20) == {}

    def test_exactly_twenty_kept(self):
        pairs = {("a", "b"): {1: 5}}
        assert min_occurrence_filter(pairs, {"a": 20, "b": 20}, 20) == pairs

    def test_zero_threshold_is_identity(self):
        pairs = {("a", "b"): {1: 1}, ("c", "d"): {2: 1}}
        assert min_occurrence_filter(pairs, {"a": 1, "b": 1, "c": 1, "d": 1}, 0) == pairs


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


class TestKcorePrune:
    def test_path_has_no_2core(self):
        pairs = {("a", "b"): {1: 1}, ("b", "c"): {1: 1}}
        kept, core = kcore_prune(pairs, 2)
        assert kept == {} and core == set()

    def test_triangle_survives(self):
        pairs = {("a", "b"): {1: 1}, ("b", "c"): {1: 1}, ("a", "c"): {1: 1}}
        kept, core = kcore_prune(pairs, 2)
        assert set(kept) == set(pairs) and core == {"a", "b", "c"}

    def test_matches_peeling_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n, p = 100, 0.05
            pairs = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        pairs[(f"v{i:03d}", f"v{j:03d}")] = {1: 1}
            kept, core = kcore_prune(pairs, 2)
            assert core == peeling_oracle(list(pairs), 2)
            assert set(kept) == {
                pair for pair in pairs if pair[0] in core and pair[1] in core
            }

    def test_post_core_min_degree(self):
        rng = np.random.default_rng(13)
        pairs = {}
        for i in range(60):
            for j in range(i + 1, 60):
                if rng.random() < 0.06:
                    pairs[(f"v{i:02d}", f"v{j:02d}")] = {1: 1}
        kept, core = kcore_prune(pairs, 3)
        degree = {}
        for a, b in kept:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(d >= 3 for d in degree.values())
        assert set(degree) == core


class TestBuildPipeline:
    def test_planted_pairs_recovered(self):
        records, planted = generate_population(PopulationSpec(seed=5))
        triples, report = build(records, BuilderConfig(k_security=20.0))
        got = {(h, t) for h, r, t in triples}
        tp = len(got & set(planted))
        assert tp / len(got) >= 0.9
        assert tp / len(planted) >= 0.8
        assert report.n_triples == len(triples)

    def test_triple_count_identity(self):
        records, _ = generate_population(PopulationSpec(seed=6, n_individuals=5000))
        triples, report = build(records)
        pair_deciles = {}
        for h, r, t in triples:
            pair_deciles.setdefault((h, t), set()).add(r)
        assert report.n_triples == sum(len(ds) for ds in pair_deciles.values())
        assert report.n_pairs == len(pair_deciles)

    def test_decile_fractions_sum_to_one(self):
        records, _ = generate_population(PopulationSpec(seed=7, n_individuals=5000))
        _, report = build(records)
        assert sum(report.decile_fractions.values()) == pytest.approx(1.0)

    def test_filter_stages_idempotent(self):
        records, _ = generate_population(PopulationSpec(seed=10, n_individuals=5000))
        from affinitykg.builder import assign_deciles, normalize_ses, quantile_boundaries

        z = normalize_ses([r.ses_raw for r in records])
        deciles = assign_deciles(z, quantile_boundaries(z))
        table = count_pairs(records, deciles)
        once = mateos_filter(table.weights, table.n_s, table.n_total, 20.0)
        assert mateos_filter(once, table.n_s, table.n_total, 20.0) == once
        rare_once = min_occurrence_filter(once, table.n_s, 20)
        assert min_occurrence_filter(rare_once, table.n_s, 20) == rare_once
        core_once, nodes = kcore_prune(rare_once, 2)
        core_twice, nodes2 = kcore_prune(core_once, 2)
        assert core_twice == core_once and nodes2 == nodes

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BuilderConfig(k_security=1.0)

    @pytest.mark.parametrize("noise", [float("nan"), -0.5, float("inf")])
    def test_population_rejects_bad_ses_noise(self, noise):
        with pytest.raises(ValueError):
            PopulationSpec(ses_noise=noise)


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        records, _ = generate_population(PopulationSpec(seed=9, n_individuals=50))
        path = tmp_path / "records.csv"
        write_records_csv(str(path), records)
        back = read_records_csv(str(path))
        assert back == records

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
        assert back[0].paternal == "perez" and back[0].maternal == "soto"

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
        assert read_records_csv(str(path))[0].paternal == "per#ez"
