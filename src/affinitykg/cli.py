"""Command-line entry point wiring the pipeline stages together.

Subcommands: gen-synthetic, build-network, split, train, grid-search,
evaluate, analyze, export-heatmaps. Configuration is a flat key=value file
(``#`` comments allowed) overridable per key with ``--set key=value``; flags
win. The effective configuration is echoed into every output directory so a
run can be reproduced from its artifacts alone.

Exit codes: 0 success, 2 input/parse error, 3 consistency error (e.g. a
checkpoint trained on a different vocabulary), 4 runtime failure. Logs go to
stderr; data only ever goes to files.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

from affinitykg import builder, evaluator, kg as kgmod, snn, synthetic, trainer
from affinitykg.errors import ConsistencyError, ParseError
from affinitykg.util import atomic_write_text, canonical_json


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
    "train.dropout_input": "dropout.input_rate",
    "train.dropout_relation": "dropout.after_relation_rate",
    "train.dropout_combination": "dropout.after_combination_rate",
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
    "threads": "reserved; has no effect (runs start no worker threads and are bit-reproducible)",
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


# Keys whose values are checked beyond their type.
_PARSERS = {"eval.mode": evaluator.check_mode}


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
        with open(path, "r", encoding="utf-8") as fh:
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
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
        return "".join(line + "\n" for line in lines)


def load_run_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        config.load_file(args.config)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ParseError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        config.set(key.strip(), value.strip())
    if getattr(args, "seed", None) is not None:
        config.values["seed"] = args.seed
    return config


def _echo_config(out_dir: str, config: RunConfig) -> None:
    atomic_write_text(os.path.join(out_dir, "effective_config.cfg"), config.echo_text())


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


def _vocab_hashes(graph: kgmod.KnowledgeGraph) -> dict:
    return {"entities": graph.entities.digest(), "relations": graph.relations.digest()}


def _check_vocab(meta: dict, graph: kgmod.KnowledgeGraph) -> None:
    expected = _vocab_hashes(graph)
    if meta.get("vocab_hash") != expected:
        raise ConsistencyError(
            "checkpoint was trained on a different vocabulary; refusing to proceed"
        )


def cmd_gen_synthetic(args) -> int:
    config = load_run_config(args)
    spec = _section(config, "synth")
    records, planted = synthetic.generate_population(spec)
    os.makedirs(args.out, exist_ok=True)
    synthetic.write_records_csv(os.path.join(args.out, "records.csv"), records)
    sidecar = {
        "planted_pairs": [list(p) for p in sorted(planted)],
        "spec": dataclasses.asdict(spec),
    }
    atomic_write_text(os.path.join(args.out, "ground_truth.json"), canonical_json(sidecar))
    _echo_config(args.out, config)
    _log(f"gen-synthetic: {len(records)} records, {len(planted)} planted pairs -> {args.out}")
    return 0


def cmd_build_network(args) -> int:
    config = load_run_config(args)
    records = builder.read_records_csv(args.records)
    triples, report = builder.build(records, _section(config, "builder"))
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(
        os.path.join(args.out, "triples.tsv"),
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples),
    )
    atomic_write_text(os.path.join(args.out, "build_report.json"), canonical_json(report.to_dict()))
    _echo_config(args.out, config)
    _log(f"build-network: {report.n_nodes} nodes, {report.n_pairs} pairs, "
         f"{report.n_triples} triples -> {args.out}")
    return 0


def cmd_split(args) -> int:
    config = load_run_config(args)
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
    atomic_write_text(os.path.join(args.out, "split_meta.json"), canonical_json(meta))
    _echo_config(args.out, config)
    _log(f"split: {meta['triples']} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args)
    graph = kgmod.load_kg_dir(args.data)
    tc = _section(config, "train")
    result = trainer.fit(graph, tc)
    os.makedirs(args.out, exist_ok=True)
    metrics = result.best_val_report.to_dict() if result.best_val_report else {}
    trainer.save_checkpoint(args.out, result.params, result.adam_state, tc,
                            result.best_epoch, metrics, _vocab_hashes(graph))
    log_lines = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in result.log)
    atomic_write_text(os.path.join(args.out, "log.jsonl"), log_lines)
    _echo_config(args.out, config)
    _log(f"train: {result.epochs_run} epochs, best val MRR {result.best_val_mrr:.4f} "
         f"at epoch {result.best_epoch} -> {args.out}")
    return 0


def cmd_grid_search(args) -> int:
    config = load_run_config(args)
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
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "grid_results.json"), canonical_json(rows))
    csv_lines = ["rank,d_r,d_e,dropout_input,dropout_relation,dropout_combination,val_mrr,val_hits1"]
    for row in rows:
        dr = row["dropout"]
        csv_lines.append(
            f"{row['rank']},{row['d_r']},{row['d_e']},{dr['input_rate']},"
            f"{dr['after_relation_rate']},{dr['after_combination_rate']},"
            f"{row['val_mrr']!r},{row['val_hits1']!r}"
        )
    atomic_write_text(os.path.join(args.out, "grid_results.csv"),
                      "".join(line + "\n" for line in csv_lines))
    _echo_config(args.out, config)
    _log(f"grid-search: {len(rows)} cells -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    config = load_run_config(args)
    graph = kgmod.load_kg_dir(args.data)
    params, _, meta = trainer.load_checkpoint(args.checkpoint)
    _check_vocab(meta, graph)
    report = evaluator.evaluate(params, graph, mode=config["eval.mode"])
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "metrics.json"), canonical_json(report.to_dict()))
    atomic_write_text(os.path.join(args.out, "per_relation.csv"), evaluator.per_relation_csv(report))
    _echo_config(args.out, config)
    _log(f"evaluate: hits@1={report.hits1:.3f} hits@3={report.hits3:.3f} "
         f"hits@10={report.hits10:.3f} MRR={report.mrr:.3f} -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    config = load_run_config(args)
    graph = kgmod.load_kg_dir(args.data)
    params, _, meta = trainer.load_checkpoint(args.checkpoint)
    _check_vocab(meta, graph)
    if meta["model"] != "tucker":
        raise ConsistencyError("SNN analysis needs a tucker checkpoint (relation matrices)")
    records = evaluator.compute_ranks(params, graph)
    hits = snn.select_hits(records, config["snn.hit_rank_cutoff"], config["eval.mode"])
    report = snn.analyze_predictions(params, graph, hits,
                                     knn_k=config["snn.k"], tau=config["snn.tau"])
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "snn_report.json"), canonical_json(report.to_dict()))
    atomic_write_text(os.path.join(args.out, "snn_report.csv"), report.to_csv())
    _echo_config(args.out, config)
    _log(f"analyze: {len(hits)} hits across {len(report.deciles)} deciles -> {args.out}")
    return 0


def cmd_export_heatmaps(args) -> int:
    config = load_run_config(args)
    graph = kgmod.load_kg_dir(args.data)
    params, _, meta = trainer.load_checkpoint(args.checkpoint)
    _check_vocab(meta, graph)
    if meta["model"] != "tucker":
        raise ConsistencyError("relation heatmaps need a tucker checkpoint")
    os.makedirs(args.out, exist_ok=True)
    indices = snn.export_relation_heatmaps(params, graph, args.out)
    atomic_write_text(os.path.join(args.out, "asymmetry.json"), canonical_json(indices))
    _echo_config(args.out, config)
    _log(f"export-heatmaps: {len(indices)} relation matrices -> {args.out}")
    return 0


def _config_epilog() -> str:
    lines = ["configuration keys (key=value in --config files or --set):"]
    for key, (_, default, help_text) in CONFIG_KEYS.items():
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"  {key} (default {default}): {help_text}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinitykg",
        description="Surname affinity knowledge graphs: build, train, evaluate, explain.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable; wins over --config)")
        p.add_argument("--seed", type=int, help="override the global seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-synthetic", help="generate a synthetic population with ground truth")
    common(p)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("build-network", help="records.csv -> affinity triples + report")
    p.add_argument("--records", required=True, help="input records.csv")
    common(p)
    p.set_defaults(func=cmd_build_network)

    p = sub.add_parser("split", help="triples.tsv -> train/valid/test folds")
    p.add_argument("--triples", required=True, help="input triples.tsv")
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a link predictor on a split directory")
    p.add_argument("--data", required=True, help="split directory")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="hyperparameter sweep ranked by validation MRR")
    p.add_argument("--data", required=True, help="split directory")
    common(p)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("evaluate", help="ranking metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="split directory")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="shared-nearest-neighbor explanation of hits")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="split directory")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export-heatmaps", help="write per-decile relation matrices as CSV")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="split directory")
    common(p)
    p.set_defaults(func=cmd_export_heatmaps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        _log(f"error: missing input: {err}")
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
