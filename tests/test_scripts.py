"""Smoke tests of the command-line scripts under ``scripts/``."""

import csv
import json
import pathlib
import subprocess
import sys

from toqc import get_scenario

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_zermelo_sweep_solvers_agree(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("zermelo_sweep.py", "--points", "2", "--out", str(out))
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(float(row["rel_dT"]) < 1e-3 for row in rows)


def test_singular_audit_matches_the_reference_facts():
    summary = json.loads(run_script("singular_audit.py"))
    assert summary
    for name, entry in summary.items():
        facts = get_scenario(name).reference_facts
        assert entry["interior"]["verdict"] == facts["interior_verdict"]
        verdicts = {case: b["verdict"] for case, b in entry.get("boundary", {}).items()}
        assert verdicts == facts.get("boundary_verdicts", {})
