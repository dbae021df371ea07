"""Report renderers against the hand-written field lists they replaced.

Each oracle below is the renderer as it was written out field by field; the
reports are rendered from their dataclasses now, and must give the same bytes.
"""

import argparse
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from affinitykg import cli
from affinitykg.evaluator import MetricsReport, per_relation_csv
from affinitykg.models import DropoutSpec
from affinitykg.snn import DecileSNN, SNNReport, relation_matrix_csv
from affinitykg.trainer import GridCell, TrainConfig
from affinitykg.util import canonical_json, format_float


def metrics_dict_oracle(report: MetricsReport) -> dict:
    out = {
        "hits1": report.hits1,
        "hits3": report.hits3,
        "hits10": report.hits10,
        "mrr": report.mrr,
        "n": report.n,
        "hits_per_rank": list(report.hits_per_rank),
    }
    if report.per_relation:
        out["per_relation"] = {
            label: metrics_dict_oracle(sub) for label, sub in sorted(report.per_relation.items())
        }
    return out


def per_relation_csv_oracle(report: MetricsReport) -> str:
    lines = ["relation,hits1,hits3,hits10,mrr,n"]
    for label, sub in sorted(report.per_relation.items()):
        lines.append(
            f"{label},{format_float(sub.hits1)},{format_float(sub.hits3)},"
            f"{format_float(sub.hits10)},{format_float(sub.mrr)},{sub.n}"
        )
    return "".join(line + "\n" for line in lines)


def snn_dict_oracle(report: SNNReport) -> dict:
    return {
        "knn_k": report.knn_k,
        "tau": report.tau,
        "deciles": [
            {
                "decile": row.decile,
                "n_hits": row.n_hits,
                "snn_grounded": row.snn_grounded,
                "snn_near": row.snn_near,
                "snn_embedding": row.snn_embedding,
                "frac_network_grounded": row.frac_network_grounded,
                "frac_embedding_grounded": row.frac_embedding_grounded,
                "frac_unexplained": row.frac_unexplained,
            }
            for row in report.deciles
        ],
    }


def snn_csv_oracle(report: SNNReport) -> str:
    lines = ["decile,snn_grounded,snn_near,snn_embedding,frac_network_grounded,n_hits"]
    for row in report.deciles:
        lines.append(
            f"{row.decile},{format_float(row.snn_grounded)},{format_float(row.snn_near)},"
            f"{format_float(row.snn_embedding)},{format_float(row.frac_network_grounded)},"
            f"{row.n_hits}"
        )
    return "".join(line + "\n" for line in lines)


def grid_csv_oracle(cells) -> str:
    rows = [
        {
            "rank": i + 1,
            "d_r": cell.config.d_r,
            "d_e": cell.config.d_e,
            "dropout": cell.config.dropout.rates(),
            "val_mrr": cell.val_mrr,
            "val_hits1": cell.val_hits1,
        }
        for i, cell in enumerate(cells)
    ]
    csv_lines = ["rank,d_r,d_e,dropout_input,dropout_relation,dropout_combination,val_mrr,val_hits1"]
    for row in rows:
        dr = row["dropout"]
        csv_lines.append(
            f"{row['rank']},{row['d_r']},{row['d_e']},{dr['input_rate']},"
            f"{dr['after_relation_rate']},{dr['after_combination_rate']},"
            f"{row['val_mrr']!r},{row['val_hits1']!r}"
        )
    return "".join(line + "\n" for line in csv_lines)


def relation_matrix_csv_oracle(M) -> str:
    return "".join(",".join(format_float(x) for x in row) + "\n" for row in np.asarray(M))


# Finite floats, with integer-valued ones drawn often: those are the values
# whose spelling ("1.0", not "1") the renderers must keep.
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**6, 10**6).map(float))
counts = st.integers(0, 10**6)
labels = st.text(alphabet="dr0123456789_inv", min_size=1, max_size=6)
rates = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(0.0))


def metrics_reports(per_relation):
    return st.builds(MetricsReport, hits1=numbers, hits3=numbers, hits10=numbers, mrr=numbers,
                     n=counts, hits_per_rank=st.lists(counts, min_size=10, max_size=10),
                     per_relation=per_relation)


top_reports = metrics_reports(st.dictionaries(labels, metrics_reports(st.just({})), max_size=4))
snn_reports = st.builds(
    SNNReport,
    deciles=st.lists(st.builds(DecileSNN, decile=st.integers(1, 10), n_hits=counts,
                               snn_grounded=numbers, snn_near=numbers, snn_embedding=numbers,
                               frac_network_grounded=numbers, frac_embedding_grounded=numbers,
                               frac_unexplained=numbers), max_size=4),
    knn_k=st.integers(1, 100), tau=numbers)
grid_cells = st.lists(st.builds(
    GridCell,
    config=st.builds(TrainConfig, d_r=st.integers(1, 50), d_e=st.integers(1, 1000),
                     dropout=st.builds(DropoutSpec, rates, rates, rates)),
    val_mrr=numbers, val_hits1=numbers, best_epoch=counts, epochs_run=counts), max_size=4)


@given(top_reports)
def test_metrics_report_renders_as_its_oracle(report):
    assert canonical_json(report.to_dict()) == canonical_json(metrics_dict_oracle(report))
    assert per_relation_csv(report) == per_relation_csv_oracle(report)


@given(snn_reports)
def test_snn_report_renders_as_its_oracle(report):
    assert canonical_json(asdict(report)) == canonical_json(snn_dict_oracle(report))
    assert report.to_csv() == snn_csv_oracle(report)


@given(grid_cells)
def test_grid_csv_renders_as_its_oracle(cells):
    with mock.patch.object(cli.kgmod, "load_kg_dir"), \
            mock.patch.object(cli.trainer, "grid_search", return_value=cells):
        files, _ = cli.cmd_grid_search(argparse.Namespace(data=None), cli.RunConfig())
    assert files["grid_results.csv"] == grid_csv_oracle(cells)


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5)))
def test_relation_matrix_csv_renders_as_its_oracle(M):
    assert relation_matrix_csv(M) == relation_matrix_csv_oracle(M)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_rejects_non_json_numbers(value):
    with pytest.raises(ValueError):
        canonical_json({"tau": value})
