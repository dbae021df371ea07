"""End-to-end command-line pipeline: exit codes, artifacts, determinism."""

import csv
import json
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from affinitykg import builder, synthetic, trainer
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

    def test_misspelled_eval_mode_exits_2(self, pipeline, tmp_path, capsys):
        assert run(["evaluate", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                    "--out", tmp_path / "out", "--set", "eval.mode=filterd"]) == 2
        assert "eval.mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_snn_tau_exits_2(self, pipeline, tmp_path):
        assert run(["analyze", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                    "--out", tmp_path / "out", "--set", "snn.tau=nan"]) == 2
        assert not (tmp_path / "out").exists()

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
        ("adam_eps", "0"), ("adam_eps", "inf"), ("adam_eps", "nan"),
    ])
    def test_out_of_range_train_value_exits_2(self, pipeline, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        assert run(["train", "--data", pipeline["data"], "--out", out, *FAST_TRAIN,
                    "--set", f"train.{key}={value}"]) == 2
        assert key in capsys.readouterr().err
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

    def test_help_enumerates_every_key_and_default(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for key, (_, default, _) in CONFIG_KEYS.items():
            assert key in text
        assert "default 0.005" in text and "default filtered" in text


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
