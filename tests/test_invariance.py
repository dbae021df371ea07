"""Invariance laws: transformations that carry no information leave results unmoved.

Builder: the order of the records, a power-of-two scale of every SES score,
and the case and surrounding spaces of the surnames in records.csv leave the
triples and the build report identical. Evaluate: numbering the entities or
the base relations differently, with the embedding rows moved to match, leaves
the metrics report and per_relation.csv identical. Analyze: numbering the
entities differently, with the embedding rows and the hits moved to match,
leaves the SNN report identical. The analyze laws over the relation
vocabulary (its order, an absent decile) are in tests/test_snn.py.
"""

import functools
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinitykg.builder import BuilderConfig, Records, build, read_records_csv
from affinitykg.evaluator import evaluate, per_relation_csv
from affinitykg.kg import KnowledgeGraph, Vocab
from affinitykg.models import MODELS, init_params
from affinitykg.snn import analyze_predictions
from affinitykg.synthetic import (
    PopulationSpec,
    generate_population,
    two_block_kg,
    write_records_csv,
)
from affinitykg.util import format_float

BUILDER = BuilderConfig(k_security=3.0, min_occurrences=5)
SEEDS = st.integers(0, 3)
RNG_SEEDS = st.integers(0, 2**32 - 1)


@functools.lru_cache(maxsize=None)
def generated(seed: int):
    return generate_population(PopulationSpec(n_individuals=4000, surnames_per_community=30,
                                              seed=seed))


def population(seed: int) -> Records:
    return generated(seed)[0]


def built(records: Records):
    """The triples and the report dict; an empty triple list would make a law vacuous."""
    triples, report = build(records, BUILDER)
    assert triples
    return triples, report.to_dict()


class TestBuilderLaws:
    @settings(max_examples=8, deadline=None)
    @given(SEEDS, RNG_SEEDS)
    def test_record_order_moves_nothing(self, seed, rng_seed):
        records = population(seed)
        order = np.random.default_rng(rng_seed).permutation(len(records))
        shuffled = Records(records.labels, records.paternal[order], records.maternal[order],
                           records.ses[order])
        assert built(shuffled) == built(records)

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, st.integers(-3, 5))
    def test_power_of_two_ses_scale_moves_nothing(self, seed, k):
        records = population(seed)
        assert built(replace(records, ses=records.ses * 2.0**k)) == built(records)

    @settings(max_examples=6, deadline=None)
    @given(SEEDS, RNG_SEEDS)
    def test_surname_case_and_spaces_move_nothing(self, tmp_path_factory, seed, rng_seed):
        records, blocks, _ = generated(seed)
        rng = np.random.default_rng(rng_seed)
        spaces = ["", " ", "  "]

        def disguise(label: str) -> str:
            cased = "".join(c.upper() if flip else c
                            for c, flip in zip(label, rng.integers(0, 2, len(label))))
            return spaces[rng.integers(3)] + cased + spaces[rng.integers(3)]

        root = tmp_path_factory.mktemp("records")
        write_records_csv(str(root / "plain.csv"), records, blocks)
        rows = zip(records.paternal.tolist(), records.maternal.tolist(),
                   records.ses.tolist(), blocks)
        (root / "disguised.csv").write_text("paternal,maternal,ses,block\n" + "".join(
            f"{disguise(records.labels[p])},{disguise(records.labels[m])},"
            f"{format_float(ses)},{block}\n" for p, m, ses, block in rows), encoding="utf-8")
        assert (built(read_records_csv(str(root / "disguised.csv")))
                == built(read_records_csv(str(root / "plain.csv"))))


def evaluated(params, kg: KnowledgeGraph, mode: str):
    report = evaluate(params, kg, mode=mode)
    return report.to_dict(), per_relation_csv(report)


def graph_and_params(graph_seed: int, params_seed: int, model: str):
    kg = two_block_kg(seed=graph_seed, n_entities=40, clique_size=5,
                      valid_size=10, test_size=15)
    return init_params(kg.n_entities, 2 * kg.n_base_relations, 6, 3, params_seed, model), kg


def relabel_entities(params, kg: KnowledgeGraph, new_id: np.ndarray):
    """Entity e becomes new_id[e]; its label and its row of E move with it."""
    labels, E = [None] * kg.n_entities, np.empty_like(params.E)
    for old, new in enumerate(new_id.tolist()):
        labels[new], E[new] = kg.entities.label_of(old), params.E[old]

    def move(rows):
        return np.stack([new_id[rows[:, 0]], rows[:, 1], new_id[rows[:, 2]]], axis=1)

    return (replace(params, E=E),
            KnowledgeGraph(Vocab(labels), kg.relations,
                           move(kg.train), move(kg.valid), move(kg.test)))


def relabel_relations(params, kg: KnowledgeGraph, new_id: np.ndarray):
    """Base relation r becomes new_id[r]; its label, and its base and
    reciprocal rows of R, move with it."""
    n = kg.n_base_relations
    labels, R = [None] * n, np.empty_like(params.R)
    for old, new in enumerate(new_id.tolist()):
        labels[new] = kg.relations.label_of(old)
        R[new], R[n + new] = params.R[old], params.R[n + old]

    def move(rows):
        return np.stack([rows[:, 0], new_id[rows[:, 1]], rows[:, 2]], axis=1)

    return (replace(params, R=R),
            KnowledgeGraph(kg.entities, Vocab(labels),
                           move(kg.train), move(kg.valid), move(kg.test)))


@pytest.mark.parametrize("mode", ["filtered", "raw"])
@pytest.mark.parametrize("model", MODELS)
class TestEvaluateLaws:
    @settings(max_examples=5, deadline=None)
    @given(SEEDS, RNG_SEEDS, RNG_SEEDS)
    def test_entity_numbering_moves_nothing(self, model, mode, graph_seed, params_seed, rng_seed):
        params, kg = graph_and_params(graph_seed, params_seed, model)
        new_id = np.random.default_rng(rng_seed).permutation(kg.n_entities)
        assert (evaluated(*relabel_entities(params, kg, new_id), mode)
                == evaluated(params, kg, mode))

    @settings(max_examples=5, deadline=None)
    @given(SEEDS, RNG_SEEDS, RNG_SEEDS)
    def test_relation_numbering_moves_nothing(self, model, mode, graph_seed, params_seed,
                                              rng_seed):
        params, kg = graph_and_params(graph_seed, params_seed, model)
        new_id = np.random.default_rng(rng_seed).permutation(kg.n_base_relations)
        assert (evaluated(*relabel_relations(params, kg, new_id), mode)
                == evaluated(params, kg, mode))


class TestAnalyzeLaws:
    @settings(max_examples=8, deadline=None)
    @given(SEEDS, RNG_SEEDS, RNG_SEEDS, st.integers(1, 39))
    def test_entity_numbering_moves_nothing(self, graph_seed, params_seed, rng_seed, knn_k):
        # Continuous random embeddings: no two kNN distances tie, so no
        # neighbour set depends on the lower-id tie rule.
        params, kg = graph_and_params(graph_seed, params_seed, "tucker")
        hits = kg.test.tolist()
        new_id = np.random.default_rng(rng_seed).permutation(kg.n_entities)
        moved_hits = [(new_id[h], r, new_id[t]) for h, r, t in hits]
        report = asdict(analyze_predictions(params, kg, hits, knn_k=knn_k))
        assert report["deciles"]
        assert asdict(analyze_predictions(*relabel_entities(params, kg, new_id), moved_hits,
                                          knn_k=knn_k)) == report
