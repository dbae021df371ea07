"""Command-line entry point wiring the pipeline stages together.

Subcommands: gen-synthetic, build-network, split, train, grid-search,
evaluate, analyze, export-heatmaps. Configuration is a flat key=value file
(``#`` comments allowed) overridable per key with ``--set key=value``; flags
win. A command writes its files only after its work succeeds, and last echoes
the effective configuration, so a run can be reproduced from its artifacts.

Exit codes: 0 success, 2 input/parse error, 3 consistency error (e.g. a
checkpoint trained on a different vocabulary or split), 4 runtime failure.
Logs go to stderr; data only ever goes to files.
"""

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import sys

from affinitykg import builder, evaluator, kg as kgmod, snn, synthetic, trainer
from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.util import atomic_write_text, canonical_json, csv_text, open_text, sha256_file


# Each section's keys fill the fields of one dataclass, which owns their
# defaults and types.
_SECTIONS = {
    "builder": builder.BuilderConfig,
    "train": trainer.TrainConfig,
    "grid": trainer.GridSpec,
    "synth": synthetic.PopulationSpec,
}

# Section keys whose field has another name; a dotted name is a nested field.
_FIELD_NAMES = {
    "synth.communities": "n_communities",
    "synth.individuals": "n_individuals",
    **{f"train.{key}": f"dropout.{field.name}"
       for key, field in zip(trainer.DropoutSpec.KEYS, dataclasses.fields(trainer.DropoutSpec))},
}

# Defaults of the keys no dataclass owns.
_DEFAULTS = {
    "seed": 0,
    "threads": 1,
    "split.valid_size": 200,
    "split.test_size": 200,
    "eval.mode": "filtered",
    "snn.k": 50,
    "snn.tau": 0.0,
    "snn.hit_rank_cutoff": 10,
}

_HELP = {
    "seed": "global random seed",
    "threads": "reserved; accepted and has no effect",
    "builder.k_security": "security factor over expected random co-occurrence",
    "builder.min_occurrences": "drop surnames borne by fewer individuals",
    "builder.kcore_k": "k-core threshold for periphery pruning",
    "builder.n_deciles": "number of income deciles",
    "split.valid_size": "validation fold size (triples)",
    "split.test_size": "test fold size (triples)",
    "train.model": "tucker|transe|distmult|complex",
    "train.epochs": "maximum training epochs",
    "train.batch_size": "queries per Adam update",
    "train.learning_rate": "Adam learning rate",
    "train.decay_rate": "per-epoch learning-rate multiplier",
    "train.d_e": "entity embedding dim",
    "train.d_r": "relation embedding dim",
    "train.dropout_input": "dropout on the head entity row",
    "train.dropout_relation": "dropout after the core-relation product",
    "train.dropout_combination": "dropout on the combined query vector",
    "train.label_smoothing": "label smoothing toward 1/n_e",
    "train.adam_beta1": "Adam first-moment decay",
    "train.adam_beta2": "Adam second-moment decay",
    "train.adam_eps": "Adam denominator epsilon",
    "train.eval_every": "epochs between validation passes",
    "train.patience": "non-improving validations tolerated before stopping",
    "grid.d_r": "relation-dim candidates",
    "grid.d_e": "entity-dim candidates",
    "grid.dropout_input": "input dropout candidates",
    "grid.dropout_relation": "relation dropout candidates",
    "grid.dropout_combination": "combination dropout candidates",
    "eval.mode": "ranking mode: filtered|raw",
    "snn.k": "kNN size in the embedding space",
    "snn.tau": "SNN threshold for classifying a hit as grounded",
    "snn.hit_rank_cutoff": "rank cutoff defining a correctly predicted triple",
    "synth.communities": "planted communities",
    "synth.surnames_per_community": "surname pool per community",
    "synth.individuals": "population size",
    "synth.intra_bias": "probability a record uses a planted pair",
    "synth.ses_noise": "SES noise standard deviation",
}


def _field_name(key: str) -> str:
    return _FIELD_NAMES.get(key, key.partition(".")[2])


def _int_from(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be an integer >= {low}, got {value}")
        return value
    return parse


# Keys whose values are checked beyond their type.
_PARSERS = {"eval.mode": evaluator.check_mode, "seed": _int_from(0),
            "snn.k": _int_from(1), "snn.hit_rank_cutoff": _int_from(1)}


def _key_spec(key: str, help_text: str) -> tuple:
    """(parser, default, help) of a key; the parser is the default's type, and
    a tuple default parses as a comma list of its element type."""
    section = key.partition(".")[0]
    if section in _SECTIONS:
        default = functools.reduce(getattr, _field_name(key).split("."), _SECTIONS[section]())
    else:
        default = _DEFAULTS[key]
    if isinstance(default, tuple):
        element = type(default[0])
        return (lambda text: tuple(element(x) for x in text.split(",") if x.strip()),
                default, help_text)
    return _PARSERS.get(key, type(default)), default, help_text


def _spell(value) -> str:
    """A key's value as a config file spells it; a tuple is a comma list."""
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


# key -> (parser, default, help)
CONFIG_KEYS = {key: _key_spec(key, help_text) for key, help_text in _HELP.items()}


class RunConfig:
    """Flat dotted-key configuration with typed, defaulted keys."""

    def __init__(self):
        self.values = {key: default for key, (_, default, _) in CONFIG_KEYS.items()}

    def set(self, key: str, raw: str, where: str = "command line") -> None:
        if key not in CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r} (from {where})")
        parse = CONFIG_KEYS[key][0]
        try:
            self.values[key] = parse(raw)
        except ValueError as err:
            raise ParseError(f"bad value for {key}: {err} (from {where})") from None

    def load_file(self, path: str) -> None:
        with open_text(path) as fh:
            for n, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError("expected key=value", n, path)
                key, _, value = line.partition("=")
                self.set(key.strip(), value.strip(), where=f"{path}:{n}")

    def __getitem__(self, key: str):
        return self.values[key]

    def echo_text(self) -> str:
        return "".join(f"{key}={_spell(self.values[key])}\n" for key in sorted(self.values))


def load_run_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        config.load_file(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ParseError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        config.set(key.strip(), value.strip())
    if args.seed is not None:
        config.set("seed", args.seed, where="--seed")
    return config


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _section(config: RunConfig, name: str):
    """The section's dataclass filled from its keys, and from the global seed
    when the dataclass has a seed field."""
    cls = _SECTIONS[name]
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    values = {"seed": config["seed"]} if "seed" in types else {}
    for key in CONFIG_KEYS:
        if key.startswith(name + "."):
            field, _, nested = _field_name(key).partition(".")
            if nested:
                values.setdefault(field, {})[nested] = config[key]
            else:
                values[field] = config[key]
    return cls(**{field: types[field](**value) if isinstance(value, dict) else value
                  for field, value in values.items()})


def _split_hashes(directory: str, graph: kgmod.KnowledgeGraph) -> dict:
    """The vocabulary hashes, and the SHA-256 of each fold file keyed by its name."""
    return {"entities": graph.entities.digest(), "relations": graph.relations.digest(),
            **{name: sha256_file(os.path.join(directory, name))
               for name in kgmod.FOLD_FILES.values()}}


def _load_trained(args, tucker_error: str | None = None):
    """(graph, params) from --data and --checkpoint; a checkpoint of another
    vocabulary or split, or of another model than Tucker when tucker_error is
    given, fails."""
    graph = kgmod.load_kg_dir(args.data)
    params, meta = trainer.load_params(args.checkpoint)
    for key, digest in _split_hashes(args.data, graph).items():
        if meta["vocab_hash"].get(key) != digest:
            raise ConsistencyError(f"checkpoint was trained on another split or vocabulary: "
                                   f"{key} differs; refusing to proceed")
    if tucker_error is not None and meta["model"] != "tucker":
        raise ConsistencyError(tucker_error)
    return graph, params


# A command does its work, calling the library writers for the files they own,
# and returns its other files (name -> text) in writing order and a summary.

def cmd_gen_synthetic(args, config: RunConfig) -> tuple[dict, str]:
    spec = _section(config, "synth")
    records, blocks, planted = synthetic.generate_population(spec)
    synthetic.write_records_csv(os.path.join(args.out, "records.csv"), records, blocks)
    sidecar = {"planted_pairs": [list(p) for p in sorted(planted)],
               "spec": dataclasses.asdict(spec)}
    return ({"ground_truth.json": canonical_json(sidecar)},
            f"{len(records)} records, {len(planted)} planted pairs")


def cmd_build_network(args, config: RunConfig) -> tuple[dict, str]:
    records = builder.read_records_csv(args.records)
    triples, report = builder.build(records, _section(config, "builder"))
    return ({"triples.tsv": "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples),
             "build_report.json": canonical_json(report.to_dict())},
            f"{report.n_nodes} nodes, {report.n_pairs} pairs, {report.n_triples} triples")


def cmd_split(args, config: RunConfig) -> tuple[dict, str]:
    graph, duplicates = kgmod.load_triples_file(args.triples)
    if duplicates:
        _log(f"split: collapsed {duplicates} duplicate triples")
    graph = kgmod.split(graph, config["split.valid_size"], config["split.test_size"], config["seed"])
    kgmod.save_kg_dir(args.out, graph)
    meta = {
        "triples": {"train": len(graph.train), "valid": len(graph.valid), "test": len(graph.test)},
        "entities": graph.n_entities,
        "relations": graph.n_relations,
        "duplicates_collapsed": duplicates,
        "seed": config["seed"],
    }
    return {"split_meta.json": canonical_json(meta)}, f"{meta['triples']}"


def cmd_train(args, config: RunConfig) -> tuple[dict, str]:
    graph = kgmod.load_kg_dir(args.data)
    tc = _section(config, "train")
    result = trainer.fit(graph, tc)
    metrics = result.best_val_report.to_dict() if result.best_val_report else {}
    trainer.save_checkpoint(args.out, result.params, result.adam_state, tc,
                            result.best_epoch, metrics, _split_hashes(args.data, graph))
    return ({"log.jsonl": "".join(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
                                  for rec in result.log)},
            f"{result.epochs_run} epochs, best val MRR {result.best_val_mrr:.4f} "
            f"at epoch {result.best_epoch}")


def cmd_grid_search(args, config: RunConfig) -> tuple[dict, str]:
    graph = kgmod.load_kg_dir(args.data)
    cells = trainer.grid_search(graph, _section(config, "grid"), _section(config, "train"))
    rows = [
        {
            "rank": i + 1,
            "d_r": cell.config.d_r,
            "d_e": cell.config.d_e,
            "dropout": cell.config.dropout.rates(),
            "val_mrr": cell.val_mrr,
            "val_hits1": cell.val_hits1,
            "best_epoch": cell.best_epoch,
            "epochs_run": cell.epochs_run,
        }
        for i, cell in enumerate(cells)
    ]
    header = ("rank", "d_r", "d_e", *trainer.DropoutSpec.KEYS, "val_mrr", "val_hits1")
    return ({"grid_results.json": canonical_json(rows),
             "grid_results.csv": csv_text([header] + [
                 (row["rank"], row["d_r"], row["d_e"], *row["dropout"].values(),
                  row["val_mrr"], row["val_hits1"]) for row in rows])},
            f"{len(rows)} cells")


def cmd_evaluate(args, config: RunConfig) -> tuple[dict, str]:
    graph, params = _load_trained(args)
    report = evaluator.evaluate(params, graph, mode=config["eval.mode"])
    return ({"metrics.json": canonical_json(report.to_dict()),
             "per_relation.csv": evaluator.per_relation_csv(report)},
            f"hits@1={report.hits1:.3f} hits@3={report.hits3:.3f} "
            f"hits@10={report.hits10:.3f} MRR={report.mrr:.3f}")


def cmd_analyze(args, config: RunConfig) -> tuple[dict, str]:
    graph, params = _load_trained(
        args, "SNN analysis needs a tucker checkpoint (relation matrices)")
    records = evaluator.compute_ranks(params, graph)
    hits = snn.select_hits(records, config["snn.hit_rank_cutoff"], config["eval.mode"])
    report = snn.analyze_predictions(params, graph, hits,
                                     knn_k=config["snn.k"], tau=config["snn.tau"])
    return ({"snn_report.json": canonical_json(dataclasses.asdict(report)),
             "snn_report.csv": report.to_csv()},
            f"{len(hits)} hits across {len(report.deciles)} deciles")


def cmd_export_heatmaps(args, config: RunConfig) -> tuple[dict, str]:
    graph, params = _load_trained(args, "relation heatmaps need a tucker checkpoint")
    files, indices = snn.export_relation_heatmaps(params, graph)
    return ({**files, "asymmetry.json": canonical_json(indices)},
            f"{len(indices)} relation matrices")


_DATA = ("--data", "split directory")
_TRAINED = (("--checkpoint", "checkpoint directory"), _DATA)

# name -> (function, help, input options as (flag, help))
COMMANDS = {
    "gen-synthetic": (cmd_gen_synthetic, "generate a synthetic population with ground truth", ()),
    "build-network": (cmd_build_network, "records.csv -> affinity triples + report",
                      (("--records", "input records.csv"),)),
    "split": (cmd_split, "triples.tsv -> train/valid/test folds",
              (("--triples", "input triples.tsv"),)),
    "train": (cmd_train, "train a link predictor on a split directory", (_DATA,)),
    "grid-search": (cmd_grid_search, "hyperparameter sweep ranked by validation MRR", (_DATA,)),
    "evaluate": (cmd_evaluate, "ranking metrics for a checkpoint", _TRAINED),
    "analyze": (cmd_analyze, "shared-nearest-neighbor explanation of hits", _TRAINED),
    "export-heatmaps": (cmd_export_heatmaps, "write per-decile relation matrices as CSV",
                        _TRAINED),
}


def _config_epilog() -> str:
    lines = ["configuration keys (key=value in --config files or --set):"]
    for key, (_, default, help_text) in CONFIG_KEYS.items():
        lines.append(f"  {key} (default {_spell(default)}): {help_text}")
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parse_args returns a fresh namespace and
    leaves the parser as it was, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="affinitykg",
        description="Surname affinity knowledge graphs: build, train, evaluate, explain.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, inputs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, input_help in inputs:
            p.add_argument(flag, required=True, help=input_help)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable; wins over --config)")
        p.add_argument("--seed", help="override the global seed")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def _check_out(out: str) -> None:
    """Refuse an --out that names a file or lies under one, before any work."""
    path = os.path.abspath(out) if out else ""
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ParseError(f"--out {out!r}: {path!r} is not a directory")


def _hold_heap() -> None:
    """Pin glibc's malloc thresholds where its dynamic rule tops out (mmap 32 MB,
    trim 64 MB). Training's per-batch temporaries then stay on the heap; under
    the dynamic rule, depending on what the process freed before, the heap top
    went back to the system after one batch and was faulted in by the next.
    Elsewhere than glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _hold_heap()
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args)
        _check_out(args.out)
        with trainer.one_blas_thread():
            files, summary = COMMANDS[args.command][0](args, config)
        for name, text in files.items():
            atomic_write_text(os.path.join(args.out, name), text)
        atomic_write_text(os.path.join(args.out, "effective_config.cfg"), config.echo_text())
        _log(f"{args.command}: {summary} -> {args.out}")
        return 0
    except FileNotFoundError as err:
        _log(f"error: missing input: {err}")
        return 2
    except IsADirectoryError as err:
        # os.replace names the directory it would have replaced second.
        _log(f"error: {err.filename2 or err.filename!r} is a directory, not a file")
        return 2
    except (ParseError, ValueError) as err:
        # Bad file contents or out-of-range configuration values.
        _log(f"error: {err}")
        return 2
    except ConsistencyError as err:
        _log(f"error: {err}")
        return 3
    except Exception as err:  # noqa: BLE001 - the CLI boundary maps everything to exit 4
        _log(f"error: {type(err).__name__}: {err}")
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
