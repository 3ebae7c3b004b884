"""Recompute ``reference.json``: the gate's stored scores at the reference seed.

Run from the root of a source checkout after a change that is meant to
move the scores (or the workloads), and commit the new file with it:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run


TOLERANCE_DB = 1e-4


def main() -> int:
    run.pin_environment()
    run.import_library()
    from workloads import SCALES, WORKLOADS, reference_rows

    reference = {"seed": run.REFERENCE_SEED, "tolerance_db": TOLERANCE_DB}
    for scale, make_config in SCALES.items():
        cfg = make_config(rng_seed=run.REFERENCE_SEED)
        reference[scale] = {}
        for name, workload in WORKLOADS.items():
            outcome = workload.run(cfg, workload.setup(cfg))
            reference[scale][name] = reference_rows(outcome)
            print(f"{scale} {name}: {outcome.rows}", file=sys.stderr, flush=True)
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
