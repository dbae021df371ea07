#!/usr/bin/env python3
"""SHA-256 digests of every file the BLAS-free stages of the reference chain write.

In a temporary directory, runs gen-synthetic (seed 7, 20000 individuals),
build-network and split (seed 7, 100 validation and 100 test triples), each
through affinitykg.cli.main. Prints {path relative to the run directory:
sha256} as canonical JSON. tests/golden/chain_digests.json holds the digests
of the committed tree; a change that moves a bit of these files on purpose
regenerates it with

    PYTHONPATH=src python scripts/chain_digests.py > tests/golden/chain_digests.json
"""

import os
import sys
import tempfile

from affinitykg.cli import main as cli
from affinitykg.util import canonical_json, sha256_file

SEED = 7


def run(argv):
    code = cli([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def chain_digests(workdir: str) -> dict:
    """Run the chain under workdir and return {relative path: sha256}."""
    run(["gen-synthetic", "--out", f"{workdir}/gen", "--seed", SEED,
         "--set", "synth.individuals=20000"])
    run(["build-network", "--records", f"{workdir}/gen/records.csv", "--out", f"{workdir}/net"])
    run(["split", "--triples", f"{workdir}/net/triples.tsv", "--out", f"{workdir}/data",
         "--seed", SEED, "--set", "split.valid_size=100", "--set", "split.test_size=100"])
    digests = {}
    for directory, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(directory, name)
            digests[os.path.relpath(path, workdir).replace(os.sep, "/")] = sha256_file(path)
    return digests


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = chain_digests(workdir)
    sys.stdout.write(canonical_json(digests))


if __name__ == "__main__":
    main()
