"""The benchmark's workloads: what set-up writes and which CLI stages are timed.

Every workload is a closed loop with one client: the stages run one after the
other through ``affinitykg.cli.main``, in the benchmark's own process, and the
next stage starts when the previous one returns. Inputs come only from the
workload seed: set-up writes them to disk and the timed stages read them back.
"""

import os
from dataclasses import dataclass, replace

# Larger than any entity count, so every test triple is an SNN hit and the
# analyze stage's work is fixed by the split, not by how well training went.
SNN_ALL_HITS = 1_000_000
# evaluate takes a few hundredths of a second, so each repetition runs it this
# many times; run.py counts it once in wall_s and takes the median of the samples.
EVALUATE_SAMPLES = 5


@dataclass(frozen=True)
class Sizes:
    # tucker-d200: the paper's default model on the two-block graph.
    d200_d_e: int = 200
    d200_lr: float = 0.005
    d200_epochs: int = 10
    d200_eval_every: int = 5
    # four-models-d32: Tucker and the three baselines at dim 32. DistMult's
    # MRR stays near chance for a seed-dependent number of epochs before it
    # rises: at lr 0.02 some seeds are still below the MRR floor after 20
    # epochs. At 0.1 every model is at 8x the floor or more by epoch 20 on
    # each of 24 seeds tried. The per-query work does not depend on lr.
    d32_lr: float = 0.1
    d32_epochs: int = 20
    d32_eval_every: int = 10
    # surname-pipeline: gen-synthetic on a larger surname pool.
    individuals: int = 200_000
    communities: int = 4
    surnames_per_community: int = 300
    surname_lr: float = 0.005
    surname_epochs: int = 2
    surname_fold_size: int = 100


FULL = Sizes()
# A few seconds per workload, for the benchmark's own smoke tests. The higher
# learning rate lets a few epochs clear the MRR floor.
TINY = replace(FULL, d200_d_e=32, d200_lr=0.05, d200_epochs=5, d200_eval_every=5,
               d32_epochs=10, d32_eval_every=10, individuals=20_000,
               communities=2, surnames_per_community=60, surname_epochs=1,
               surname_fold_size=20)
SCALES = {"full": FULL, "tiny": TINY}

MODELS = ("tucker", "transe", "distmult", "complex")


@dataclass(frozen=True)
class Stage:
    name: str           # CLI subcommand
    argv: list
    out: str            # artifact directory the stage writes
    model: str = ""     # model trained or evaluated, when there is one
    sample: int = 0     # > 0 for the extra samples of a repeated stage

    @property
    def key(self) -> str:
        """Stage identity shared by every sample, e.g. "evaluate[tucker]"."""
        return f"{self.name}[{self.model}]" if self.model else self.name


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str         # "split" (a split directory) or "records" (records.csv)
    d_e: int
    trains: bool        # MRR floor applies: every model is trained long enough to learn


def _train(data: str, out: str, seed: int, model: str, d_e: int, epochs: int,
           eval_every: int, lr: float) -> Stage:
    dropout = ("0.5", "0.2", "0.2") if model == "tucker" else ("0", "0", "0")
    argv = ["train", "--data", data, "--out", out, "--seed", str(seed),
            "--set", f"train.model={model}", "--set", f"train.d_e={d_e}",
            "--set", "train.d_r=10", "--set", "train.batch_size=128",
            "--set", f"train.learning_rate={lr}", "--set", f"train.epochs={epochs}",
            "--set", f"train.eval_every={eval_every}",
            # Patience as long as the run: early stopping never triggers.
            "--set", f"train.patience={epochs}",
            "--set", f"train.dropout_input={dropout[0]}",
            "--set", f"train.dropout_relation={dropout[1]}",
            "--set", f"train.dropout_combination={dropout[2]}"]
    return Stage("train", argv, out, model)


def _train_and_evaluate(data, rep, seed, model, d_e, epochs, eval_every, lr):
    ckpt = os.path.join(rep, f"ckpt-{model}")
    stages = [_train(data, ckpt, seed, model, d_e, epochs, eval_every, lr)]
    for sample in range(EVALUATE_SAMPLES):
        out = os.path.join(rep, f"eval-{model}" + (f"-{sample}" if sample else ""))
        argv = ["evaluate", "--checkpoint", ckpt, "--data", data, "--out", out]
        stages.append(Stage("evaluate", argv, out, model, sample))
    return stages


def tucker_d200_stages(seed: int, inputs: str, rep: str, sizes: Sizes) -> list:
    data = os.path.join(inputs, "data")
    return _train_and_evaluate(data, rep, seed, "tucker", sizes.d200_d_e,
                               sizes.d200_epochs, sizes.d200_eval_every, sizes.d200_lr)


def four_models_stages(seed: int, inputs: str, rep: str, sizes: Sizes) -> list:
    data = os.path.join(inputs, "data")
    stages = []
    for model in MODELS:
        stages += _train_and_evaluate(data, rep, seed, model, 32, sizes.d32_epochs,
                                      sizes.d32_eval_every, sizes.d32_lr)
    return stages


def surname_stages(seed: int, inputs: str, rep: str, sizes: Sizes) -> list:
    net = os.path.join(rep, "net")
    data = os.path.join(rep, "data")
    ckpt = os.path.join(rep, "ckpt-tucker")
    fold = sizes.surname_fold_size
    stages = [
        Stage("build-network", ["build-network", "--records",
                                 os.path.join(inputs, "records.csv"), "--out", net,
                                 "--seed", str(seed)], net),
        Stage("split", ["split", "--triples", os.path.join(net, "triples.tsv"), "--out", data,
                        "--seed", str(seed), "--set", f"split.valid_size={fold}",
                        "--set", f"split.test_size={fold}"], data),
    ]
    stages += _train_and_evaluate(data, rep, seed, "tucker", 32, sizes.surname_epochs,
                                  sizes.surname_epochs, sizes.surname_lr)
    snn_out = os.path.join(rep, "snn")
    heat_out = os.path.join(rep, "heatmaps")
    stages += [
        Stage("analyze", ["analyze", "--checkpoint", ckpt, "--data", data, "--out", snn_out,
                          "--set", f"snn.hit_rank_cutoff={SNN_ALL_HITS}"], snn_out, "tucker"),
        Stage("export-heatmaps", ["export-heatmaps", "--checkpoint", ckpt, "--data", data,
                                  "--out", heat_out], heat_out, "tucker"),
    ]
    return stages


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "tucker-d200": Workload("tucker-d200", "split", 200, True),
    "four-models-d32": Workload("four-models-d32", "split", 32, True),
    "surname-pipeline": Workload("surname-pipeline", "records", 32, False),
}

STAGES = {
    "tucker-d200": tucker_d200_stages,
    "four-models-d32": four_models_stages,
    "surname-pipeline": surname_stages,
}


def make_inputs(name: str, seed: int, out: str, sizes: Sizes) -> None:
    """Write the workload's inputs for `seed` under `out`."""
    from affinitykg import cli, kg as kgmod, synthetic

    os.makedirs(out, exist_ok=True)
    if WORKLOADS[name].inputs == "split":
        kgmod.save_kg_dir(os.path.join(out, "data"), synthetic.two_block_kg(seed=seed))
        return
    code = cli.main(["gen-synthetic", "--out", out, "--seed", str(seed),
                     "--set", f"synth.individuals={sizes.individuals}",
                     "--set", f"synth.communities={sizes.communities}",
                     "--set", f"synth.surnames_per_community={sizes.surnames_per_community}"])
    if code != 0:
        raise RuntimeError(f"gen-synthetic exited with code {code}")
