#!/usr/bin/env python3
"""Regenerate bench/reference.json from the library in src/.

    python3 bench/make_reference.py

The analyze_hull verdicts hold for every strictly convex simplicial hull
(Cauchy/Dehn: rigid, only trivial flexes, no self-stress).  The probe_pd and
dent_harness cases record what the library computed when the benchmark was
defined; a change that alters them changes the library's verdicts.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import rigidity3d  # noqa: E402
from workloads import dent_rows  # noqa: E402

PROBE_CASES = ((2006, 6),)
DENT_CASES = ((606681, 16),)


def main():
    probe = [
        {"seed": seed, "trials": trials,
         "trial_records": [t.to_dict() for t in rigidity3d.pd_probe(trials=trials, seed=seed).trials]}
        for seed, trials in PROBE_CASES
    ]
    dent = []
    for seed, trials in DENT_CASES:
        report = rigidity3d.dent_rigidity_harness(seed=seed, trials=trials)
        dent.append({"seed": seed, "trials": trials, "trial_rows": dent_rows(report.trials),
                     "skipped": report.skipped})
    reference = {
        "analyze_hull": {"verdicts": {
            "rigid": True,
            "flex_dimension": 6,
            "trivial_dimension": 6,
            "stress_space_dimension": 0,
            "convexity": rigidity3d.Convexity.STRONGLY_STRICTLY_CONVEX.value,
            "reflex_edges": [],
        }},
        "inductive_stress": {"oracle_tol": 1e-6, "residual_tol": 1e-9},
        "probe_pd": {"min_eigenvalue_rtol": 1e-9, "cases": probe},
        "dent_harness": {"cases": dent},
    }
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
