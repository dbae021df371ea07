"""End-to-end command-line pipeline: exit codes, artifacts, determinism."""

import codecs
import csv
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from affinitykg import builder, cli, synthetic, trainer
from affinitykg import kg as kgmod
from affinitykg.cli import CONFIG_KEYS, build_parser, main
from affinitykg.errors import ParseError

FAST_TRAIN = [
    "--set", "train.epochs=6",
    "--set", "train.d_e=8",
    "--set", "train.d_r=4",
    "--set", "train.eval_every=3",
    "--set", "train.patience=5",
]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run: gen-synthetic -> build-network -> split -> train."""
    root = tmp_path_factory.mktemp("pipeline")
    gen, net, data, ckpt = root / "gen", root / "net", root / "data", root / "ckpt"
    assert run(["gen-synthetic", "--out", gen, "--seed", 3,
                "--set", "synth.individuals=6000"]) == 0
    assert run(["build-network", "--records", gen / "records.csv", "--out", net]) == 0
    assert run(["split", "--triples", net / "triples.tsv", "--out", data,
                "--seed", 3, "--set", "split.valid_size=100",
                "--set", "split.test_size=100"]) == 0
    assert run(["train", "--data", data, "--out", ckpt, "--seed", 3, *FAST_TRAIN]) == 0
    return {"root": root, "gen": gen, "net": net, "data": data, "ckpt": ckpt}


class TestGenSynthetic:
    def test_outputs_present(self, pipeline):
        assert (pipeline["gen"] / "records.csv").exists()
        sidecar = json.loads((pipeline["gen"] / "ground_truth.json").read_text())
        assert sidecar["planted_pairs"]
        assert (pipeline["gen"] / "effective_config.cfg").exists()

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["gen-synthetic", "--out", tmp_path / sub, "--seed", 9,
                        "--set", "synth.individuals=500"]) == 0
        for name in ("records.csv", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_module_run_does_the_command(self, tmp_path):
        # `python -m affinitykg.cli` runs the same command as the script entry point.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "affinitykg.cli", "gen-synthetic",
                               "--out", str(tmp_path / "x"), "--seed", "1",
                               "--set", "synth.individuals=500"], env=env, check=False)
        assert done.returncode == 0
        assert (tmp_path / "x" / "records.csv").exists()

    def test_zero_bias_plants_nothing_detectable(self, tmp_path):
        assert run(["gen-synthetic", "--out", tmp_path, "--seed", 1,
                    "--set", "synth.individuals=3000",
                    "--set", "synth.intra_bias=0.0"]) == 0
        out = tmp_path / "net"
        assert run(["build-network", "--records", tmp_path / "records.csv",
                    "--out", out]) == 0
        report = json.loads((out / "build_report.json").read_text())
        # Pure random pairing yields no affinity structure above threshold.
        assert report["pairs"] == 0


class TestBuildNetwork:
    def test_report_fields(self, pipeline):
        report = json.loads((pipeline["net"] / "build_report.json").read_text())
        for key in ("records", "nodes", "pairs", "triples", "avg_degree",
                    "decile_fractions", "degree_histogram"):
            assert key in report
        assert report["nodes"] > 0 and report["triples"] > 0

    def test_malformed_csv_exits_2_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("paternal,maternal,ses,block\nperez,soto,oops,b1\n")
        assert run(["build-network", "--records", bad, "--out", tmp_path / "out"]) == 2
        assert "bad.csv:2" in capsys.readouterr().err

    # A field longer than csv.field_size_limit() (131 072 characters).
    @pytest.mark.parametrize("lines,named", [
        (["x" * 200_000], "records.csv:1: field larger than field limit"),
        (["paternal,maternal,ses,block", "perez,soto,1,b", "x" * 200_000 + ",soto,2,b"],
         "records.csv:3: field larger than field limit"),
        # A bad row before the one the csv module refuses is named first.
        (["paternal,maternal,ses,block", "perez,soto,oops,b", "x" * 200_000 + ",soto,2,b"],
         "records.csv:2: bad SES value"),
        # A row is named by the line it starts on; the row before spans two.
        (["paternal,maternal,ses,block", 'perez,soto,"1', '",b', "x" * 200_000 + ",soto,2,b"],
         "records.csv:4: field larger than field limit"),
    ], ids=["header", "row", "earlier-bad-row", "after-a-quoted-line-break"])
    def test_csv_fault_exits_2_naming_its_line(self, tmp_path, capsys, lines, named):
        records = tmp_path / "records.csv"
        records.write_text("".join(line + "\n" for line in lines))
        assert run(["build-network", "--records", records, "--out", tmp_path / "out"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["build-network", "--records", tmp_path / "nope.csv",
                    "--out", tmp_path / "out"]) == 2

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "again"
        assert run(["build-network", "--records", pipeline["gen"] / "records.csv",
                    "--out", again]) == 0
        for name in ("triples.tsv", "build_report.json"):
            assert (again / name).read_bytes() == (pipeline["net"] / name).read_bytes()


class TestSplitAndTrain:
    def test_split_fold_files(self, pipeline):
        meta = json.loads((pipeline["data"] / "split_meta.json").read_text())
        assert meta["triples"]["valid"] == 100 and meta["triples"]["test"] == 100
        for name in ("train.tsv", "valid.tsv", "test.tsv", "entities.txt", "relations.txt"):
            assert (pipeline["data"] / name).exists()

    def test_checkpoint_files(self, pipeline):
        for name in ("meta.json", "E.bin", "R.bin", "G.bin", "adam_m_E.bin", "log.jsonl"):
            assert (pipeline["ckpt"] / name).exists()
        meta = json.loads((pipeline["ckpt"] / "meta.json").read_text())
        assert meta["model"] == "tucker" and "vocab_hash" in meta

    def test_log_records_loss_and_lr(self, pipeline):
        lines = (pipeline["ckpt"] / "log.jsonl").read_text().strip().split("\n")
        first = json.loads(lines[0])
        assert {"epoch", "loss", "lr", "clamped"} <= set(first)

    def test_log_counts_clamped_probabilities(self, pipeline, tmp_path):
        def clamped(log_dir):
            lines = (log_dir / "log.jsonl").read_text().splitlines()
            return [json.loads(line)["clamped"] for line in lines]

        assert clamped(pipeline["ckpt"]) == [0] * 6
        assert run(["train", "--data", pipeline["data"], "--out", tmp_path, "--seed", 3,
                    *FAST_TRAIN, "--set", "train.learning_rate=1e6"]) == 0
        assert sum(clamped(tmp_path)) > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_exits_4_without_a_checkpoint(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ckpt"
        assert run(["train", "--data", pipeline["data"], "--out", out, "--seed", 3,
                    *FAST_TRAIN, "--set", "train.learning_rate=1e300"]) == 4
        assert "diverged: E has non-finite values after epoch 0" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_search_without_validation_fold_exits_2(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["split", "--triples", pipeline["net"] / "triples.tsv", "--out", data,
                    "--seed", 3, "--set", "split.valid_size=0",
                    "--set", "split.test_size=100"]) == 0
        assert run(["grid-search", "--data", data, "--out", tmp_path / "grid",
                    "--set", "train.epochs=1", "--set", "grid.d_e=8", "--set", "grid.d_r=4",
                    "--set", "grid.dropout_input=0.5", "--set", "grid.dropout_relation=0.2",
                    "--set", "grid.dropout_combination=0.2"]) == 2
        assert "validation fold" in capsys.readouterr().err

    @pytest.mark.parametrize("model,cells", [("distmult", 1), ("tucker", 6)])
    def test_grid_search_trains_each_distinct_fit_once(self, pipeline, tmp_path, monkeypatch,
                                                       model, cells):
        # Only Tucker reads d_r and the dropout rates; the other axes are one fit.
        fits = []
        real_fit = trainer.fit

        def counted_fit(kg, config):
            fits.append(config)
            return real_fit(kg, config)

        monkeypatch.setattr(trainer, "fit", counted_fit)
        out = tmp_path / "grid"
        assert run(["grid-search", "--data", pipeline["data"], "--out", out,
                    "--set", f"train.model={model}", "--set", "train.epochs=1",
                    "--set", "grid.d_e=8", "--set", "grid.d_r=10,20,30",
                    "--set", "grid.dropout_input=0.2", "--set", "grid.dropout_relation=0.2",
                    "--set", "grid.dropout_combination=0.2,0.5"]) == 0
        assert len(fits) == cells
        with open(out / "grid_results.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + cells


class TestEvaluateAnalyzeExport:
    def test_evaluate_outputs(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--checkpoint", pipeline["ckpt"],
                    "--data", pipeline["data"], "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("hits1", "hits3", "hits10", "mrr", "n", "hits_per_rank", "per_relation"):
            assert key in metrics
        assert (out / "per_relation.csv").read_text().startswith("relation,")

    def test_vocab_mismatch_exits_3(self, pipeline, tmp_path):
        other_data = tmp_path / "other"
        assert run(["split", "--triples", pipeline["net"] / "triples.tsv",
                    "--out", other_data, "--seed", 4,
                    "--set", "split.valid_size=50", "--set", "split.test_size=50"]) == 0
        # Corrupt the vocabulary: swap two entity labels.
        entities = (other_data / "entities.txt").read_text().splitlines()
        entities[0], entities[1] = entities[1], entities[0]
        (other_data / "entities.txt").write_text("".join(e + "\n" for e in entities))
        assert run(["evaluate", "--checkpoint", pipeline["ckpt"],
                    "--data", other_data, "--out", tmp_path / "out"]) == 3

    @pytest.mark.parametrize("command", ["evaluate", "analyze", "export-heatmaps"])
    def test_checkpoint_of_another_split_exits_3_naming_the_fold(self, pipeline, tmp_path,
                                                                  capsys, command):
        # Another seed draws other folds over the same vocabulary, so the
        # training fold is the first file that differs.
        other = tmp_path / "other"
        assert run(["split", "--triples", pipeline["net"] / "triples.tsv", "--out", other,
                    "--seed", 4, "--set", "split.valid_size=100",
                    "--set", "split.test_size=100"]) == 0
        # The checkpoint's own folds with the test triples reordered: only
        # the bytes of test.tsv differ.
        reordered = tmp_path / "reordered"
        shutil.copytree(pipeline["data"], reordered)
        lines = (reordered / "test.tsv").read_text().splitlines(keepends=True)
        (reordered / "test.tsv").write_text("".join(reversed(lines)))
        for data, fold in ((other, "train.tsv"), (reordered, "test.tsv")):
            out = tmp_path / f"out-{fold}"
            assert run([command, "--checkpoint", pipeline["ckpt"],
                        "--data", data, "--out", out]) == 3
            assert f"{fold} differs" in capsys.readouterr().err
            assert not out.exists()

    def test_leaky_split_exits_3(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in os.listdir(pipeline["data"]):
            (data / name).write_bytes((pipeline["data"] / name).read_bytes())
        leaked = (data / "train.tsv").read_text().splitlines()[0]
        with open(data / "test.tsv", "a", encoding="utf-8") as fh:
            fh.write(leaked + "\n")
        assert run(["evaluate", "--checkpoint", pipeline["ckpt"],
                    "--data", data, "--out", tmp_path / "out"]) == 3
        assert "test triple" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("problem", ["self-loop", "repeated"])
    def test_malformed_split_exits_3(self, pipeline, tmp_path, capsys, problem):
        data = tmp_path / "data"
        data.mkdir()
        for name in os.listdir(pipeline["data"]):
            (data / name).write_bytes((pipeline["data"] / name).read_bytes())
        h, r, t = (data / "train.tsv").read_text().splitlines()[-1].split("\t")
        # A repeat in the other orientation is the same undirected triple.
        row = f"{h}\t{r}\t{h}" if problem == "self-loop" else f"{t}\t{r}\t{h}"
        with open(data / "train.tsv", "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        assert run(["evaluate", "--checkpoint", pipeline["ckpt"],
                    "--data", data, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert "train.tsv: " in err and problem in err and repr(tuple(row.split("\t"))) in err
        assert not (tmp_path / "out").exists()

    def test_analyze_outputs(self, pipeline, tmp_path):
        out = tmp_path / "snn"
        assert run(["analyze", "--checkpoint", pipeline["ckpt"],
                    "--data", pipeline["data"], "--out", out,
                    "--set", "snn.k=10"]) == 0
        report = json.loads((out / "snn_report.json").read_text())
        assert "deciles" in report
        csv_text = (out / "snn_report.csv").read_text()
        assert csv_text.startswith(
            "decile,snn_grounded,snn_near,snn_embedding,frac_network_grounded,n_hits"
        )

    def test_analyze_holds_one_blas_thread_and_restores_the_count(self, pipeline, tmp_path,
                                                                  monkeypatch):
        control = trainer.openblas_threads()
        if control is None:
            pytest.skip("numpy does not link OpenBLAS")
        get, set_ = control
        seen = []
        analyze = cli.snn.analyze_predictions

        def counting(*args, **kwargs):
            seen.append(get())
            return analyze(*args, **kwargs)

        monkeypatch.setattr(cli.snn, "analyze_predictions", counting)
        before = get()
        set_(2)  # so a count left at one shows even on a one-core machine
        try:
            assert run(["analyze", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                        "--out", tmp_path / "snn", "--set", "snn.k=10"]) == 0
            after = get()
        finally:
            set_(before)
        assert seen == [1] and after == 2

    def test_d200_heatmaps_byte_identical_at_one_and_two_blas_threads(self, pipeline, tmp_path):
        # Unheld, np.linalg.norm's dot product over a 200 x 200 relation matrix splits
        # its sum over two threads and moves the last bits of asymmetry.json.
        control = trainer.openblas_threads()
        if control is None:
            pytest.skip("numpy does not link OpenBLAS")
        get, set_ = control
        ckpt = tmp_path / "ckpt"
        assert run(["train", "--data", pipeline["data"], "--out", ckpt, "--seed", 3,
                    "--set", "train.epochs=1", "--set", "train.d_e=200",
                    *(f"--set=train.{key}=0" for key in trainer.DropoutSpec.KEYS)]) == 0
        before, outputs = get(), []
        try:
            for threads in (1, 2):
                set_(threads)
                out = tmp_path / f"heatmaps{threads}"
                assert run(["export-heatmaps", "--checkpoint", ckpt, "--data", pipeline["data"],
                            "--out", out]) == 0
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        finally:
            set_(before)
        assert "asymmetry.json" in outputs[0] and outputs[0] == outputs[1]

    def test_checkpoint_meta_without_core_exits_3(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in os.listdir(pipeline["ckpt"]):
            (ckpt / name).write_bytes((pipeline["ckpt"] / name).read_bytes())
        meta = json.loads((ckpt / "meta.json").read_text())
        del meta["blocks"]["G"]
        (ckpt / "meta.json").write_text(json.dumps(meta))
        assert run(["evaluate", "--checkpoint", ckpt, "--data", pipeline["data"],
                    "--out", tmp_path / "out"]) == 3
        assert "blocks" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, code, named", [
        ("missing-adam-step", 3, "meta.json: key 'adam_step' is missing"),
        ("vocab-hash-not-object", 3, "meta.json: key 'vocab_hash' is missing or not an object"),
        ("not-json", 2, "meta.json:1: "),
        ("not-utf8", 2, "meta.json:1: not valid UTF-8"),
        ("swapped-E", 3, "meta.json: key 'blocks' gives G the shape"),
    ], ids=["missing-adam-step", "vocab-hash-not-object", "not-json", "not-utf8", "swapped-E"])
    def test_checkpoint_meta_fault_is_named(self, pipeline, tmp_path, capsys, fault, code,
                                            named):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline["ckpt"], ckpt)
        meta = json.loads((ckpt / "meta.json").read_text())
        if fault == "missing-adam-step":
            del meta["adam_step"]
        elif fault == "vocab-hash-not-object":
            meta["vocab_hash"] = "entities"
        elif fault == "swapped-E":
            meta["blocks"]["E"].reverse()
        text = json.dumps(meta)
        (ckpt / "meta.json").write_text(text[:-1] if fault == "not-json" else text)
        if fault == "not-utf8":
            # An encoded surrogate: ED A0 80 is not UTF-8.
            (ckpt / "meta.json").write_bytes(b'{"model": "\xed\xa0\x80"}')
        assert run(["analyze", "--checkpoint", ckpt, "--data", pipeline["data"],
                    "--out", tmp_path / "out"]) == code
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_truncated_block_exits_3_naming_it(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline["ckpt"], ckpt)
        (ckpt / "E.bin").write_bytes((ckpt / "E.bin").read_bytes()[:-8])
        assert run(["evaluate", "--checkpoint", ckpt, "--data", pipeline["data"],
                    "--out", tmp_path / "out"]) == 3
        assert "E.bin: expected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tucker_only_commands_refuse_a_distmult_checkpoint(self, pipeline, tmp_path,
                                                               capsys):
        ckpt = tmp_path / "ckpt"
        assert run(["train", "--data", pipeline["data"], "--out", ckpt, *FAST_TRAIN,
                    "--set", "train.model=distmult"]) == 0
        for command in ("analyze", "export-heatmaps"):
            capsys.readouterr()
            out = tmp_path / command
            assert run([command, "--checkpoint", ckpt, "--data", pipeline["data"],
                        "--out", out]) == 3
            assert "tucker checkpoint" in capsys.readouterr().err
            assert not out.exists()

    def test_empty_test_fold_exits_2_naming_it(self, pipeline, tmp_path, capsys):
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        assert run(["split", "--triples", pipeline["net"] / "triples.tsv", "--out", data,
                    "--set", "split.valid_size=100", "--set", "split.test_size=0"]) == 0
        assert run(["train", "--data", data, "--out", ckpt, *FAST_TRAIN]) == 0
        for command in ("evaluate", "analyze"):
            capsys.readouterr()
            out = tmp_path / command
            assert run([command, "--checkpoint", ckpt, "--data", data, "--out", out,
                        "--set", "snn.k=10"]) == 2
            assert "test.tsv: the test fold is empty" in capsys.readouterr().err
            assert not out.exists()

    def test_misspelled_eval_mode_exits_2(self, pipeline, tmp_path, capsys):
        assert run(["evaluate", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                    "--out", tmp_path / "out", "--set", "eval.mode=filterd"]) == 2
        assert "eval.mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_snn_tau_exits_2(self, pipeline, tmp_path):
        assert run(["analyze", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                    "--out", tmp_path / "out", "--set", "snn.tau=nan"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tau", ["inf", "-inf"])
    def test_infinite_snn_tau_exits_2(self, pipeline, tmp_path, capsys, tau):
        assert run(["analyze", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                    "--out", tmp_path / "out", "--set", f"snn.tau={tau}"]) == 2
        assert "snn tau must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cutoff", ["0", "100000"])
    def test_zero_snn_k_exits_2_naming_key(self, pipeline, tmp_path, capsys, cutoff):
        assert run(["analyze", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                    "--out", tmp_path / "out", "--set", "snn.k=0",
                    "--set", f"snn.hit_rank_cutoff={cutoff}"]) == 2
        assert "snn.k" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cutoff", ["0", "-1"])
    def test_snn_hit_rank_cutoff_below_1_exits_2_naming_key(self, pipeline, tmp_path, capsys,
                                                            cutoff):
        # No rank is below 1, so such a cutoff would select no hit at all.
        assert run(["analyze", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                    "--out", tmp_path / "out", "--set", f"snn.hit_rank_cutoff={cutoff}"]) == 2
        assert "snn.hit_rank_cutoff" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_padded_decile_label_exits_2_naming_it(self, tmp_path, capsys):
        labels = ["d4", "d05", "d6"]
        (tmp_path / "triples.tsv").write_text("".join(
            f"e{a}\t{labels[(a + b) % 3]}\te{b}\n" for a, b in itertools.combinations(range(8), 2)))
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        assert run(["split", "--triples", tmp_path / "triples.tsv", "--out", data,
                    "--set", "split.valid_size=4", "--set", "split.test_size=4"]) == 0
        assert run(["train", "--data", data, "--out", ckpt, *FAST_TRAIN]) == 0
        capsys.readouterr()
        assert run(["analyze", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "out",
                    "--set", "snn.k=2"]) == 2
        assert "'d05'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert run(["export-heatmaps", "--checkpoint", ckpt, "--data", data,
                    "--out", tmp_path / "maps"]) == 2
        assert "relation label 'd05' is not a decile label d<k>" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    def test_label_starting_with_hash_exits_2_naming_the_line(self, tmp_path, capsys):
        # Stored canonically, ('e0', 'd1', '#x') would be the row '#x\td1\te0': a comment.
        rows = [f"e{a}\td{(a + b) % 3 + 1}\te{b}\n" for a, b in itertools.combinations(range(8), 2)]
        (tmp_path / "triples.tsv").write_text("".join(rows) + "e0\td1\t#x\ne1\td2\t#x\n")
        assert run(["split", "--triples", tmp_path / "triples.tsv", "--out", tmp_path / "data",
                    "--set", "split.valid_size=4", "--set", "split.test_size=4"]) == 2
        assert (f"triples.tsv:{len(rows) + 1}: label '#x' starts with '#'"
                in capsys.readouterr().err)
        assert not (tmp_path / "data").exists()

    def test_repeated_vocabulary_label_exits_2_naming_the_line(self, pipeline, tmp_path,
                                                               capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        entities = (data / "entities.txt").read_text().splitlines()
        with open(data / "entities.txt", "a", encoding="utf-8") as fh:
            fh.write(f"\n{entities[1]}\n")
        assert run(["evaluate", "--checkpoint", pipeline["ckpt"],
                    "--data", data, "--out", tmp_path / "out"]) == 2
        assert (f"entities.txt:{len(entities) + 2}: label {entities[1]!r} repeats line 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_read_side_needs_no_adam_moments(self, pipeline, tmp_path):
        bare = tmp_path / "bare"
        shutil.copytree(pipeline["ckpt"], bare)
        moments = sorted(bare.glob("adam_*.bin"))
        assert len(moments) == 6
        for path in moments:
            path.unlink()
        for command in ("evaluate", "analyze", "export-heatmaps"):
            outputs = []
            for ckpt in (pipeline["ckpt"], bare):
                out = tmp_path / f"{command}-{ckpt.name}"
                assert run([command, *COMMAND_INPUTS[command](pipeline), "--checkpoint", ckpt,
                            "--out", out]) == 0
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert outputs[0] == outputs[1], command

    def test_export_heatmaps_one_per_decile(self, pipeline, tmp_path):
        out = tmp_path / "maps"
        assert run(["export-heatmaps", "--checkpoint", pipeline["ckpt"],
                    "--data", pipeline["data"], "--out", out]) == 0
        files = sorted(f for f in os.listdir(out) if f.startswith("relmat_"))
        assert len(files) == 10
        assert (out / "asymmetry.json").exists()


# Surnames mixing the characters triples.tsv gives meaning to with arbitrary text.
# Lone surrogates (category Cs) are left out: no UTF-8 file can hold them, so
# write_records could not write the records.csv they would be read from.
surname = st.text(st.one_of(st.sampled_from("#\t\r\n ,\"ab"),
                            st.characters(exclude_categories=("Cs",))),
                  min_size=1, max_size=6)
# Plain pairs: one random pair alone would miss the co-occurrence threshold,
# and the split needs more triples than its two evaluation folds.
FILLER = [("filler-a", "filler-b"), ("filler-c", "filler-d"), ("filler-e", "filler-f")]
KEEP_ALL = {"k_security": 1.0001, "min_occurrences": 0, "kcore_k": 0, "n_deciles": 2}


def write_records(path, pairs):
    """Three bearers of each pair, each with its own SES value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(builder.RECORDS_HEADER)
        for i, (paternal, maternal) in enumerate(pairs):
            for k in range(3):
                writer.writerow([paternal, maternal, 3 * i + k, "b"])


class TestLabelRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(surname, min_size=2, max_size=8))
    def test_accepted_labels_survive_build_split_load(self, names):
        """A surname read_records_csv rejects is a ParseError naming its line;
        the triples built from the accepted ones come back out of the split
        directory unchanged."""
        with tempfile.TemporaryDirectory() as tmp:
            records_csv = os.path.join(tmp, "records.csv")
            accepted = []
            for name in names:
                write_records(records_csv, [(name, "filler-a")])
                try:
                    builder.read_records_csv(records_csv)
                    accepted.append(name)
                except ParseError as err:
                    assert err.line_no == 2
                    event("a surname rejected")
            write_records(records_csv, list(zip(accepted[::2], accepted[1::2])) + FILLER)
            built, _ = builder.build(builder.read_records_csv(records_csv),
                                     builder.BuilderConfig(**KEEP_ALL))
            net, data = os.path.join(tmp, "net"), os.path.join(tmp, "data")
            sets = [x for key, value in KEEP_ALL.items() for x in ("--set", f"builder.{key}={value}")]
            assert run(["build-network", "--records", records_csv, "--out", net, *sets]) == 0
            assert run(["split", "--triples", os.path.join(net, "triples.tsv"), "--out", data,
                        "--set", "split.valid_size=1", "--set", "split.test_size=1"]) == 0
            graph = kgmod.load_kg_dir(data)
            loaded = {(graph.entities.label_of(h), graph.relations.label_of(r),
                       graph.entities.label_of(t)) for h, r, t in graph.all_triples().tolist()}
            assert loaded == set(built)
            random_labels = [x for x in graph.entities.labels if not x.startswith("filler-")]
            event(f"{len(random_labels)} random surnames round-tripped")


class TestConfigHandling:
    def test_unknown_key_exits_2(self, tmp_path):
        assert run(["gen-synthetic", "--out", tmp_path, "--set", "nope.key=1"]) == 2

    def test_bad_value_exits_2(self, tmp_path):
        assert run(["gen-synthetic", "--out", tmp_path,
                    "--set", "synth.individuals=many"]) == 2

    @pytest.mark.parametrize("noise", ["nan", "-1"])
    def test_bad_ses_noise_exits_2(self, tmp_path, noise):
        assert run(["gen-synthetic", "--out", tmp_path / "out",
                    "--set", f"synth.ses_noise={noise}"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("label_smoothing", "-3"),
        ("label_smoothing", "1"), ("adam_beta1", "1"), ("adam_beta2", "-0.5"),
        ("adam_eps", "0"), ("adam_eps", "inf"), ("adam_eps", "nan"), ("d_e", "0"), ("d_r", "0"),
        ("dropout_input", "1.5"), ("dropout_relation", "-0.1"), ("dropout_combination", "1"),
    ])
    def test_out_of_range_train_value_exits_2(self, pipeline, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        assert run(["train", "--data", pipeline["data"], "--out", out, *FAST_TRAIN,
                    "--set", f"train.{key}={value}"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("builder.min_occurrences", "-1"), ("builder.kcore_k", "-1"),
        ("split.valid_size", "-1"), ("split.test_size", "-1"),
        ("synth.communities", "0"), ("synth.communities", "-1"),
        ("synth.surnames_per_community", "0"), ("synth.surnames_per_community", "-1"),
        ("seed", "-1"),
    ])
    def test_out_of_range_value_exits_2_naming_its_key(self, pipeline, tmp_path, capsys,
                                                       key, value):
        stage = {"builder": ["build-network", "--records", pipeline["gen"] / "records.csv"],
                 "split": ["split", "--triples", pipeline["net"] / "triples.tsv"]}
        out = tmp_path / "out"
        assert run([*stage.get(key.partition(".")[0], ["gen-synthetic"]), "--out", out,
                    "--set", f"{key}={value}"]) == 2
        assert key.rpartition(".")[2] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,values", [
        ("dropout_input", "0.2,1.5"), ("dropout_relation", "0.1,-1"),
        ("dropout_combination", "1.0"),
    ])
    def test_out_of_range_grid_rate_exits_2_naming_its_key_before_training(
            self, pipeline, tmp_path, capsys, monkeypatch, key, values):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained before the grid was checked")

        monkeypatch.setattr(trainer, "fit", no_training)
        out = tmp_path / "out"
        assert run(["grid-search", "--data", pipeline["data"], "--out", out, *FAST_TRAIN,
                    "--set", "grid.d_e=8", "--set", "grid.d_r=4",
                    "--set", f"grid.{key}={values}"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,values", [("d_e", "8,0"), ("d_r", "4,-1")])
    def test_out_of_range_grid_dim_exits_2_naming_its_key_before_training(
            self, pipeline, tmp_path, capsys, monkeypatch, key, values):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained before the grid was checked")

        monkeypatch.setattr(trainer, "fit", no_training)
        out = tmp_path / "out"
        assert run(["grid-search", "--data", pipeline["data"], "--out", out, *FAST_TRAIN,
                    "--set", "grid.d_e=8", "--set", "grid.d_r=4",
                    "--set", f"grid.{key}={values}"]) == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_option_exits_2_naming_it(self, tmp_path, capsys):
        assert run(["gen-synthetic", "--out", tmp_path / "out", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_k_security_exits_2(self, pipeline, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run(["build-network", "--records", pipeline["gen"] / "records.csv", "--out", out,
                    "--set", f"builder.k_security={value}"]) == 2
        assert "k_security" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_rare_filter_order_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("builder.rare_filter_order=after_mateos\n")
        assert run(["gen-synthetic", "--config", cfg, "--out", tmp_path / "out"]) == 2

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nsynth.individuals=400\nsynth.intra_bias=0.5\n")
        out = tmp_path / "out"
        assert run(["gen-synthetic", "--config", cfg, "--out", out,
                    "--set", "synth.individuals=600"]) == 0
        effective = (out / "effective_config.cfg").read_text()
        assert "synth.individuals=600" in effective  # flag wins
        assert "synth.intra_bias=0.5" in effective

    def test_one_parser_serves_a_failing_and_a_succeeding_call(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        fresh = build_parser.__wrapped__
        failing = ["gen-synthetic", "--set", "synth.individuals=40"]   # no --out
        passing = ["gen-synthetic", "--out", str(tmp_path / "out"),
                   "--set", "synth.individuals=50", "--set", "synth.individuals=60"]
        messages = []
        for parser in (fresh(), build_parser()):
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(failing)
            messages.append((exited.value.code, capsys.readouterr().err))
        assert messages[0] == messages[1] and messages[0][0] == 2
        with pytest.raises(SystemExit) as exited:
            main(failing)
        assert (exited.value.code, capsys.readouterr().err) == messages[0]
        assert main(passing) == 0
        assert capsys.readouterr().err.startswith("gen-synthetic: 60 records")
        assert build_parser().parse_args(passing) == fresh().parse_args(passing)
        assert "synth.individuals=60" in (tmp_path / "out" / "effective_config.cfg").read_text()
        with pytest.raises(SystemExit) as exited:
            main(failing)
        assert (exited.value.code, capsys.readouterr().err) == messages[0]

    def test_help_enumerates_every_key_and_default(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for key, (_, default, _) in CONFIG_KEYS.items():
            assert key in text
        assert "default 0.005" in text and "default filtered" in text


# Input options (and a fast configuration) of each command, given the
# pipeline fixture's directories.
COMMAND_INPUTS = {
    "gen-synthetic": lambda p: ["--set", "synth.individuals=500"],
    "build-network": lambda p: ["--records", p["gen"] / "records.csv"],
    "split": lambda p: ["--triples", p["net"] / "triples.tsv",
                        "--set", "split.valid_size=100", "--set", "split.test_size=100"],
    "train": lambda p: ["--data", p["data"], *FAST_TRAIN],
    "grid-search": lambda p: ["--data", p["data"], "--set", "train.epochs=3",
                              "--set", "train.eval_every=3", "--set", "grid.d_e=8",
                              "--set", "grid.d_r=4", "--set", "grid.dropout_input=0.1",
                              "--set", "grid.dropout_relation=0.1",
                              "--set", "grid.dropout_combination=0.1"],
    "evaluate": lambda p: ["--checkpoint", p["ckpt"], "--data", p["data"]],
    "analyze": lambda p: ["--checkpoint", p["ckpt"], "--data", p["data"], "--set", "snn.k=10"],
    "export-heatmaps": lambda p: ["--checkpoint", p["ckpt"], "--data", p["data"]],
}


class TestStageShell:
    @pytest.mark.parametrize("command", list(COMMAND_INPUTS))
    def test_bad_config_writes_nothing_and_success_logs_last(self, pipeline, tmp_path, capsys,
                                                               command):
        argv = [command, *COMMAND_INPUTS[command](pipeline)]
        out = tmp_path / "out"
        assert run([*argv, "--out", out, "--set", "seed=x"]) == 2
        assert not out.exists()
        capsys.readouterr()
        assert run([*argv, "--out", out]) == 0
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"{command}: ") and err.endswith(f" -> {out}\n")
        assert (out / "effective_config.cfg").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_out_under_a_file_exits_2_before_any_work(self, pipeline, tmp_path, capsys,
                                                      monkeypatch, command):
        def load_kg_dir(directory):
            raise AssertionError("the command started work")

        monkeypatch.setattr(kgmod, "load_kg_dir", load_kg_dir)
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        # train names the file itself; evaluate a directory below it.
        out = blocker if command == "train" else blocker / "sub"
        argv = [command, *COMMAND_INPUTS[command](pipeline), "--out", out]
        assert run(argv) == 2
        assert "--out" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [["build-network", "--records"], ["gen-synthetic", "--config"]],
                             ids=["records", "config"])
    def test_directory_as_input_file_exits_2(self, tmp_path, capsys, argv):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert run([*argv, folder, "--out", tmp_path / "out"]) == 2
        assert f"{str(folder)!r} is a directory, not a file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_directory_in_place_of_an_output_file_exits_2(self, pipeline, tmp_path, capsys):
        (tmp_path / "triples.tsv").mkdir()
        assert run(["build-network", "--records", pipeline["gen"] / "records.csv",
                    "--out", tmp_path]) == 2
        target = str(tmp_path / "triples.tsv")
        assert f"{target!r} is a directory, not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("libc", [OSError, object], ids=["no-libc", "no-mallopt"])
    def test_runs_where_the_malloc_thresholds_cannot_be_set(self, pipeline, tmp_path,
                                                            monkeypatch, libc):
        def cdll(name):
            if libc is OSError:
                raise OSError("no C library")
            return libc()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert run(["split", "--triples", pipeline["net"] / "triples.tsv", "--out", tmp_path,
                    "--set", "split.valid_size=50", "--set", "split.test_size=50"]) == 0

    def test_malloc_thresholds_are_set_before_the_command_runs(self, pipeline, tmp_path,
                                                               monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))

        def command(args, config):
            calls.append("command")
            return {}, "ran"

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        monkeypatch.setitem(cli.COMMANDS, "split", (command, *cli.COMMANDS["split"][1:]))
        assert run(["split", "--triples", pipeline["net"] / "triples.tsv", "--out", tmp_path]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20), "command"]
        # A C library without mallopt leaves the thresholds alone and raises nothing.
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._hold_heap() is None


# The command that reads each section's keys; the global seed and threads go through
# gen-synthetic.
SWEEP_COMMANDS = {"synth": "gen-synthetic", "builder": "build-network", "split": "split",
                  "train": "train", "grid": "grid-search", "eval": "evaluate",
                  "snn": "analyze"}


def _finite(text: str) -> float:
    value = float(text)
    assert math.isfinite(value), text
    return value


def assert_artifacts_finite(out) -> None:
    """Every file under out parses, and every number it holds is finite."""
    for path in sorted(out.rglob("*")):
        if path.suffix == ".bin":
            assert np.isfinite(np.fromfile(path, dtype="<f8")).all(), path
        elif path.suffix in (".json", ".jsonl"):
            text = path.read_text(encoding="utf-8")
            for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_float=_finite, parse_constant=_finite)
        elif path.is_file():
            for token in re.split(r"[\s,=]+", path.read_text(encoding="utf-8")):
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert math.isfinite(value), (path, token)


class TestConfigSweep:
    """Every key with every edge value, through the command that reads it: it
    runs and writes finite artifacts, or exits 2 or 3 naming the key. The one
    exit 4 is a learning rate so large that training diverges."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e300", ""])
    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_edge_value_runs_or_is_named(self, pipeline, tmp_path, capsys, key, value):
        command = SWEEP_COMMANDS.get(key.partition(".")[0], "gen-synthetic")
        out = tmp_path / "out"
        code = run([command, *COMMAND_INPUTS[command](pipeline), "--out", out,
                    "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        if (key, value) == ("train.learning_rate", "1e300"):
            assert code == 4 and "training diverged" in err
        elif code == 0:
            assert_artifacts_finite(out)
        else:
            assert code in (2, 3), err
            assert key.rpartition(".")[2] in err
        if code:
            assert not out.exists()


class TestTextInputs:
    def test_records_with_bom_build_the_same_triples(self, pipeline, tmp_path):
        records = tmp_path / "records.csv"
        records.write_bytes(codecs.BOM_UTF8 + (pipeline["gen"] / "records.csv").read_bytes())
        assert run(["build-network", "--records", records, "--out", tmp_path / "net"]) == 0
        assert ((tmp_path / "net" / "triples.tsv").read_bytes()
                == (pipeline["net"] / "triples.tsv").read_bytes())

    def test_triples_with_bom_split_without_a_bom_label(self, pipeline, tmp_path):
        triples = tmp_path / "triples.tsv"
        triples.write_bytes(codecs.BOM_UTF8 + (pipeline["net"] / "triples.tsv").read_bytes())
        data = tmp_path / "data"
        assert run(["split", "--triples", triples, "--out", data, "--seed", 3,
                    "--set", "split.valid_size=100", "--set", "split.test_size=100"]) == 0
        entities = (data / "entities.txt").read_text(encoding="utf-8")
        assert "\ufeff" not in entities
        assert entities == (pipeline["data"] / "entities.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("command,option,name,content,line", [
        ("build-network", "--records", "records.csv",
         b"paternal,maternal,ses,block\nperez,soto,1,b\n\xed\xa0\x80rez,soto,2,b\n", 3),
        ("split", "--triples", "triples.tsv", b"perez\td1\tsoto\nru\xffiz\td1\tsoto\n", 2),
    ], ids=["records", "triples"])
    def test_invalid_utf8_exits_2_naming_the_line(self, tmp_path, capsys, command, option,
                                                   name, content, line):
        path = tmp_path / name
        path.write_bytes(content)
        assert run([command, option, path, "--out", tmp_path / "out"]) == 2
        assert f"{name}:{line}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_self_affinity_triple_names_its_file_line(self, tmp_path, capsys):
        triples = tmp_path / "triples.tsv"
        triples.write_text("# c\na\td1\tb\n\nc\td2\tc\n")
        assert run(["split", "--triples", triples, "--out", tmp_path / "out"]) == 2
        assert f"{triples}:4: self-affinity triple 'c'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_label_ending_in_inv_is_an_ordinary_label_until_analyze(self, tmp_path, capsys):
        labels = ["d1", "d2", "d2_inv"]
        (tmp_path / "triples.tsv").write_text("".join(
            f"e{a}\t{labels[(a + b) % 3]}\te{b}\n" for a, b in itertools.combinations(range(8), 2)))
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        assert run(["split", "--triples", tmp_path / "triples.tsv", "--out", data,
                    "--set", "split.valid_size=4", "--set", "split.test_size=4"]) == 0
        assert "d2_inv" in (data / "relations.txt").read_text().splitlines()
        assert run(["train", "--data", data, "--out", ckpt, *FAST_TRAIN]) == 0
        assert run(["evaluate", "--checkpoint", ckpt, "--data", data,
                    "--out", tmp_path / "eval"]) == 0
        capsys.readouterr()
        # SNN analysis reads relations as deciles, and d2_inv is not one.
        assert run(["analyze", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "out",
                    "--set", "snn.k=2"]) == 2
        assert "relation label 'd2_inv' is not a decile label d<k>" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ses_range_too_wide_to_rescale_exits_2_naming_it(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        rows = [f"s{i % 4},t{i % 5},{ses!r},b"
                for i, ses in enumerate([-1e308, 0.0, 1e308] * 7)]
        records.write_text("paternal,maternal,ses,block\n" + "".join(r + "\n" for r in rows))
        assert run(["build-network", "--records", records, "--out", tmp_path / "net"]) == 2
        assert "SES range [-1e+308, 1e+308] is too wide" in capsys.readouterr().err
        assert not (tmp_path / "net").exists()

    def test_config_with_bom_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(codecs.BOM_UTF8 + b"synth.individuals=400\n")
        out = tmp_path / "out"
        assert run(["gen-synthetic", "--config", cfg, "--out", out]) == 0
        assert "synth.individuals=400" in (out / "effective_config.cfg").read_text()

    def test_top_ses_score_rounding_above_100_builds(self, tmp_path):
        # Normalizing hi against this (lo, hi) rounds to 100.00000000000001.
        lo, hi = -28.050229646245484, 144.75867847299656
        records = tmp_path / "records.csv"
        rows = [f"s{i % 4},t{i % 5},{ses!r},b"
                for i, ses in enumerate(np.linspace(lo, hi, 20).tolist())]
        records.write_text("paternal,maternal,ses,block\n" + "".join(r + "\n" for r in rows))
        assert float(rows[0].split(",")[2]) == lo and float(rows[-1].split(",")[2]) == hi
        assert run(["build-network", "--records", records, "--out", tmp_path / "net"]) == 0


class TestFullDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        """build -> split -> train -> evaluate -> analyze twice, same seed."""
        artifacts = {}
        for run_id in ("one", "two"):
            base = tmp_path / run_id
            gen, net, data = base / "gen", base / "net", base / "data"
            ckpt, ev, an = base / "ckpt", base / "eval", base / "snn"
            assert run(["gen-synthetic", "--out", gen, "--seed", 11,
                        "--set", "synth.individuals=4000",
                        "--set", "synth.surnames_per_community=75"]) == 0
            assert run(["build-network", "--records", gen / "records.csv",
                        "--out", net]) == 0
            assert run(["split", "--triples", net / "triples.tsv", "--out", data,
                        "--seed", 11, "--set", "split.valid_size=60",
                        "--set", "split.test_size=60"]) == 0
            assert run(["train", "--data", data, "--out", ckpt, "--seed", 11,
                        "--set", "train.epochs=20", "--set", "train.d_e=8",
                        "--set", "train.d_r=4", "--set", "train.eval_every=5",
                        "--set", "train.patience=10"]) == 0
            assert run(["evaluate", "--checkpoint", ckpt, "--data", data,
                        "--out", ev]) == 0
            assert run(["analyze", "--checkpoint", ckpt, "--data", data,
                        "--out", an, "--set", "snn.k=10"]) == 0
            collected = {}
            for directory in (gen, net, data, ckpt, ev, an):
                for name in sorted(os.listdir(directory)):
                    rel = os.path.join(os.path.basename(directory), name)
                    collected[rel] = (directory / name).read_bytes()
            artifacts[run_id] = collected
        assert artifacts["one"].keys() == artifacts["two"].keys()
        for rel, blob in artifacts["one"].items():
            assert blob == artifacts["two"][rel], f"{rel} differs between runs"


# key -> (value to set, attribute path on the dataclass the command builds,
# the value that must arrive there); every value differs from the default.
SECTION_VALUES = {
    "builder.k_security": ("12.5", "k_security", 12.5),
    "builder.min_occurrences": ("7", "min_occurrences", 7),
    "builder.kcore_k": ("3", "kcore_k", 3),
    "builder.n_deciles": ("5", "n_deciles", 5),
    "train.model": ("distmult", "model", "distmult"),
    "train.epochs": ("17", "epochs", 17),
    "train.batch_size": ("33", "batch_size", 33),
    "train.learning_rate": ("0.125", "learning_rate", 0.125),
    "train.decay_rate": ("0.75", "decay_rate", 0.75),
    "train.d_e": ("24", "d_e", 24),
    "train.d_r": ("6", "d_r", 6),
    "train.dropout_input": ("0.15", "dropout.input_rate", 0.15),
    "train.dropout_relation": ("0.35", "dropout.after_relation_rate", 0.35),
    "train.dropout_combination": ("0.45", "dropout.after_combination_rate", 0.45),
    "train.label_smoothing": ("0.05", "label_smoothing", 0.05),
    "train.adam_beta1": ("0.8", "adam_beta1", 0.8),
    "train.adam_beta2": ("0.99", "adam_beta2", 0.99),
    "train.adam_eps": ("1e-6", "adam_eps", 1e-6),
    "train.eval_every": ("4", "eval_every", 4),
    "train.patience": ("9", "patience", 9),
    "grid.d_r": ("4,8", "d_r", (4, 8)),
    "grid.d_e": ("16", "d_e", (16,)),
    "grid.dropout_input": ("0.1,0.6", "dropout_input", (0.1, 0.6)),
    "grid.dropout_relation": ("0.0", "dropout_relation", (0.0,)),
    "grid.dropout_combination": ("0.25,0.5,0.75", "dropout_combination", (0.25, 0.5, 0.75)),
    "synth.communities": ("3", "n_communities", 3),
    "synth.surnames_per_community": ("30", "surnames_per_community", 30),
    "synth.individuals": ("1234", "n_individuals", 1234),
    "synth.intra_bias": ("0.6", "intra_bias", 0.6),
    "synth.ses_noise": ("2.5", "ses_noise", 2.5),
}


class _Stop(Exception):
    pass


class TestSectionKeysReachTheirFields:
    """A --set value for each section key reaches its field of the dataclass
    the command builds; the command is stopped before it does any work."""

    def test_table_covers_every_section_key(self):
        sections = ("builder.", "train.", "grid.", "synth.")
        assert set(SECTION_VALUES) == {k for k in CONFIG_KEYS if k.startswith(sections)}
        for key, (_, _, value) in SECTION_VALUES.items():
            assert value != CONFIG_KEYS[key][1], key

    @pytest.mark.parametrize("section,module,function,position,command", [
        ("synth", synthetic, "generate_population", 0, lambda p: ["gen-synthetic"]),
        ("builder", builder, "build", 1,
         lambda p: ["build-network", "--records", p["gen"] / "records.csv"]),
        ("train", trainer, "fit", 1, lambda p: ["train", "--data", p["data"]]),
        ("grid", trainer, "grid_search", 1, lambda p: ["grid-search", "--data", p["data"]]),
    ], ids=["synth", "builder", "train", "grid"])
    def test_set_values_reach_the_built_dataclass(self, pipeline, tmp_path, monkeypatch,
                                                  section, module, function, position,
                                                  command):
        built = []

        def capture(*args):
            built.append(args[position])
            raise _Stop

        monkeypatch.setattr(module, function, capture)
        keys = [key for key in SECTION_VALUES if key.startswith(section + ".")]
        argv = command(pipeline) + ["--out", tmp_path, "--seed", 21]
        for key in keys:
            argv += ["--set", f"{key}={SECTION_VALUES[key][0]}"]
        assert run(argv) == 4
        [config] = built
        for key in keys:
            _, path, value = SECTION_VALUES[key]
            actual = config
            for name in path.split("."):
                actual = getattr(actual, name)
            assert actual == value, key
        if hasattr(config, "seed"):
            assert config.seed == 21
