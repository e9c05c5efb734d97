"""Regenerate reference.json, the record digests every run is checked against.

    python3 bench/make_reference.py            # all workloads
    python3 bench/make_reference.py walk mass  # only these

For each workload it runs the first ITEMS[workload] items at the default
seed and at the held-out seed, and stores one digest per item.  Rerun it only
when a change is meant to alter records; the records are otherwise
bit-identical across commits, and a digest that changes is a failed item.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, WORKLOADS, Budget, environment, run_worker

SEEDS = (1, 1001)  # the default seed and the held-out seed
# about three times the items of a 25 s run at the commit that set them
ITEMS = {"walk": 300, "northsouth": 800, "barycenter": 150, "mass": 800}


def main(argv):
    names = argv or list(WORKLOADS)
    fresh = {}
    for name in names:
        digests = {}
        for seed in SEEDS:
            result = run_worker(Budget(3600), name, seed, items=ITEMS[name])
            bad = [it["i"] for it in result["items"] if it["error"] or not it["ok"]]
            bad += result["finish_failed"]
            if bad:
                print(f"{name} seed {seed}: items {bad[:10]} failed; not written",
                      file=sys.stderr)
                return 1
            digests[str(seed)] = [it["digest"] for it in result["items"]]
            print(f"{name} seed {seed}: {len(result['items'])} digests", flush=True)
        fresh[name] = digests
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference.update(fresh)
    reference["src_sha256"] = environment()["src_sha256"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
