"""Golden digests of the CLI outputs at default configs.

Every subcommand runs in-process at its default config with seeds 1 and 7.
The sha256 of its NDJSON record log and its CSV aggregate, and its exit
code, must equal the entries of ``tests/data/cli_golden.json``.  So a change
that is meant to keep every record fails here if it moves one byte.

A change that does mean to change records regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and names the records it changes.
"""

import hashlib
import json
import os
import tempfile

import pytest

from sl3building.cli import SUBCOMMANDS, main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
SEEDS = (1, 7)


def _digests(sub, seed, out_dir):
    """The exit code and the sha256 of both output files of one run."""
    rc = main([sub, "--seed", str(seed), "--out", out_dir])
    out = {"exit": rc}
    for kind, name in (("ndjson", f"{sub}_records.ndjson"),
                       ("csv", f"{sub}_aggregate.csv")):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[kind] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_outputs_match_the_golden_digests(tmp_path, sub, seed):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert _digests(sub, seed, str(tmp_path)) == golden[f"{sub}/{seed}"]


if __name__ == "__main__":
    table = {}
    with tempfile.TemporaryDirectory() as d:
        for sub in SUBCOMMANDS:
            for seed in SEEDS:
                table[f"{sub}/{seed}"] = _digests(sub, seed, d)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
