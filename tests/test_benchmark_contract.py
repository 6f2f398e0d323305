"""The benchmark's traced launcher, perfbench/shim.py, still finds what it traces.

The shim wraps functions by name and reads the backend object's counter
after each call, so a rename or a moved call would leave its spans empty
without failing anything else.  These tests run it as a subprocess on tiny
inputs of the three benchmark commands and check the spans it writes; they
only read perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gaugebounds
from gaugebounds.cli import main

SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"


def traced(tmp_path, *args):
    """Runs one CLI command under the shim; returns its spans by name."""
    spans_file = tmp_path / "spans.json"
    src = os.path.dirname(os.path.dirname(gaugebounds.__file__))
    env = dict(os.environ, PERFBENCH_SPANS=str(spans_file), PERFBENCH_JOB="j0",
               PERFBENCH_PARENT="p0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(SHIM), *args, "--threads", "1"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = {}
    for _sid, name, start, end, _parent, job, attrs in json.loads(spans_file.read_text()):
        assert job == "j0" and end >= start
        spans.setdefault(name, []).append(attrs)
    return spans


def test_estimate_spans_carry_the_report_counter(tmp_path):
    assert main(["simulate", "--process", "torus:p=0.5", "--embedding", "raster:scaling=true",
                 "--n", "48", "--seed", "1", "--out", str(tmp_path / "path.csv")]) == 0
    spans = traced(tmp_path, "estimate", "--in", "path.csv", "--gauge", "lipschitz:L=1",
                   "--tau", "1", "--t", "0.2", "--backend", "indexed", "--out", "est.json")
    report = json.loads((tmp_path / "est.json").read_text())
    [prefix] = spans["nnindex.prefix_min_indexed"]
    assert prefix["distance_evaluations"] == report["distance_evaluations"] > 0
    assert prefix["pairs"] == 47 * 48 // 2
    [loo] = spans["nnindex.leave_one_out_min"]
    assert loo["pairs"] == 48 * 47 and loo["distance_evaluations"] > 0


def test_study_spans_one_indexed_profile_per_run(tmp_path):
    spans = traced(tmp_path, "study", "--process", "torus:p=0.5", "--embedding",
                   "raster:scaling=true", "--tau", "1", "--sizes", "8,32", "--p-list", "1,0.1",
                   "--n-seeds", "2", "--seed", "3", "--backend", "indexed", "--out", "s.csv")
    assert len(spans["verify.decay_study"]) == 1
    profiles = spans["nnindex.prefix_min_indexed"]
    assert len(profiles) == 4
    assert all(p["pairs"] == 31 * 32 // 2 and p["distance_evaluations"] > 0 for p in profiles)


def test_coverage_spans_one_naive_profile_per_trial(tmp_path):
    spans = traced(tmp_path, "validate", "--check", "coverage", "--process", "iid:space=circle",
                   "--n", "32", "--trials", "3", "--mc-fresh", "50", "--out", "v.json")
    assert len(spans["verify.validate_excess_loss_coverage"]) == 1
    profiles = spans["estimators.prefix_min_profile"]
    assert len(profiles) == 3
    assert all(len(p["mins_sha256"]) == 64 for p in profiles)
    assert [t["pairs"] for t in spans["estimators.true_missing_mass"]] == [31 * 50] * 3
