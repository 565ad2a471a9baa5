#!/usr/bin/env python3
"""Audit singular arcs across all built-in scenarios.

Prints, for each scenario: the constraint classification, whether the
bracket obstruction rules singular arcs out a priori, the derived interior
singular-arc structure, and the verdicts on every quadratic-boundary piece.

Usage: python scripts/singular_audit.py [--seed 0] [--m-max 4]
"""

import argparse
import json
import sys

from toqc import (
    boundary_closure_study,
    classify,
    derive_singular_structure,
    get_scenario,
)
from toqc.scenarios import SCENARIOS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--m-max", type=int, default=4)
    args = ap.parse_args()

    summary = {}
    for name in sorted(SCENARIOS):
        sc = get_scenario(name)
        report = classify(sc.constraint)
        entry = {
            "parameters": sc.parameters,
            "classification": report.as_dict(),
            "bracket_obstruction": report.drift_in_bracket,
        }
        interior = derive_singular_structure(sc.arc_model(), m_max=args.m_max)
        entry["interior"] = {
            "verdict": interior.verdict,
            "order": interior.order,
            "conditions": list(interior.derived_conditions),
            "notes": list(interior.notes),
        }
        boundary = {}
        for case in sc.boundary_cases:
            rep = boundary_closure_study(sc.constraint, case, seed=args.seed,
                                         m_max=args.m_max)
            boundary[case.name] = {"verdict": rep.verdict,
                                   "order": rep.order,
                                   "notes": list(rep.notes)}
        if boundary:
            entry["boundary"] = boundary
        summary[name] = entry

    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
