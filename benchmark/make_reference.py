#!/usr/bin/env python3
"""Write benchmark/reference.json: the fingerprint of every instance the
workloads can generate (instance seeds 0 to REFERENCE_SEEDS - 1).

    python3 benchmark/make_reference.py

Run it only when a change to bernsched is meant to change an answer, and
say so in the change; the benchmark counts every differing fingerprint as
a failed operation.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Capture  # noqa: E402
from workloads import REFERENCE, REFERENCE_SEEDS, reference_fingerprints  # noqa: E402


def main():
    capture = Capture()
    reference = {}
    with capture.installed():
        for seed in range(REFERENCE_SEEDS):
            reference.update(reference_fingerprints(seed, capture))
            print(f"seed {seed}: {len(reference)} instances", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
