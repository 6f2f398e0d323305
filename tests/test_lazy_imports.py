"""The package and the command line load only what a caller uses.

Each test starts a fresh interpreter, since the suite itself has long
loaded every module and numpy.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

import gaugebounds
from gaugebounds.cli import main

SRC = os.path.dirname(os.path.dirname(gaugebounds.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
CLI_MAIN = "import sys; from gaugebounds.cli import main; sys.exit(main())"


def python(*args, env=ENV):
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def report_digest(path):
    """sha256 of a file's bytes without its generated_at line and its work
    counter, distance_evaluations (test_contract.py pins the counters)."""
    text = re.sub(rb'^\s*"(generated_at|distance_evaluations)".*$', b"", path.read_bytes(),
                  flags=re.M)
    return hashlib.sha256(text).hexdigest()


def test_importing_the_package_loads_no_submodule():
    out = python("-c", "import sys, gaugebounds\n"
                       "print('numpy' in sys.modules,"
                       " sorted(m for m in sys.modules if m.startswith('gaugebounds.')))")
    assert out.split() == ["False", "[]"]


def test_every_lazy_name_is_its_defining_modules_object():
    # in a fresh process each name goes through the package's __getattr__
    code = ("import importlib, gaugebounds\n"
            "for name, home in gaugebounds._HOME.items():\n"
            "    module = importlib.import_module('gaugebounds.' + home)\n"
            "    value = getattr(gaugebounds, name)\n"
            "    assert value is getattr(module, name), name\n"
            "    assert getattr(value, '__module__', module.__name__) == module.__name__, name\n"
            "    assert getattr(gaugebounds, name) is value, name\n"
            "print(len(gaugebounds._HOME), sorted(gaugebounds.__all__) == sorted(gaugebounds._HOME))\n")
    assert python("-c", code).split() == [str(len(gaugebounds.__all__)), "True"]


def test_importing_the_cli_loads_neither_numpy_nor_csv():
    # pathio writes every CLI table, and only a subcommand that reads or
    # writes a file loads it, with numpy and csv
    out = python("-c", "import sys, gaugebounds.cli\n"
                       "print('numpy' in sys.modules, 'csv' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_cli_stubs_are_package_attributes():
    # cli registers its modules as lazy stubs; each is also an attribute of
    # the package, as an imported submodule is, and binding it runs nothing
    out = python("-c", "import sys, gaugebounds.cli\n"
                       "print(all(getattr(gaugebounds, m[12:]) is sys.modules[m]"
                       " for m in sys.modules if m[:12] == 'gaugebounds.'), 'numpy' in sys.modules)\n"
                       "import gaugebounds.nnindex\n"
                       "print(gaugebounds.nnindex.prefix_min_indexed.__module__)")
    assert out.split() == ["True", "False", "gaugebounds.estimators"]


# sha256 of each bound report with its generated_at line blanked: the report
# bytes are the command's contract, whatever it loads to write them
BOUND_RUNS = {
    "excess-process": (["--kind", "excess-loss", "--gt", "0.1", "--t", "0.2", "--n", "1024",
                        "--tau", "22", "--delta", "0.05", "--process", "torus:p=0.1"],
                       "c9d2d0fc9f75c0b30ee317da54c4d8e116e7deabf15561d560dc3bbf9299c718"),
    "excess-phi": (["--kind", "excess-loss", "--gt", "0.1", "--n", "1024", "--tau", "22",
                    "--delta", "0.05", "--phi-tau", "0.01"],
                   "3d70da9b0f7c92dae4b6c2c40f5ebefa85a032195d039a8970e44400d4fe745e"),
    "risk-process": (["--kind", "risk", "--g", "0.05", "--n", "1024", "--tau", "22",
                      "--delta", "0.05", "--process", "cycle:N=10,p=0.2"],
                     "84ebfa96422b53c046ca09a6b50fd43317f20b41d0e0f395910d942051e97f58"),
    "risk-phi": (["--kind", "risk", "--g", "0.05", "--n", "1024", "--tau", "22", "--delta",
                  "0.05", "--phi-tau", "0.01", "--variant", "azuma", "--sup-f", "2",
                  "--sup-g", "3"],
                 "5263a162558bc950933f55ed7ea23775864cb2fb46e0090c734a0500e7eb97d2"),
    "exceptions-process": (["--kind", "risk-exceptions", "--g", "0.05", "--n", "1022",
                            "--tau", "22", "--delta", "0.05", "--alpha", "0.1",
                            "--process", "circle:p=0.3"],
                           "fe29ab1ecca5f29501c4504d4f0dbb8b229cb9093c1a0a1f4db55538396c5623"),
    "exceptions-phi": (["--kind", "risk-exceptions", "--g", "0.05", "--n", "1022", "--tau",
                        "22", "--delta", "0.05", "--alpha", "0.1", "--phi-tau", "0.01"],
                       "4b83251874875bcf6021ff6f8faaf33b86f3ef16c803d5c30e2916cece548070"),
}


def test_bound_loads_no_numpy_and_keeps_its_report_bytes(tmp_path):
    # every run in one process: numpy stays out after each of them
    runs = {name: [*args, "--out", str(tmp_path / f"{name}.json")]
            for name, (args, _digest) in BOUND_RUNS.items()}
    code = ("import json, sys\n"
            "from gaugebounds.cli import main\n"
            "for name, args in json.loads(sys.argv[1]).items():\n"
            "    assert main(['bound', *args]) == 0, name\n"
            "    print(name, 'numpy' in sys.modules)\n")
    out = python("-c", code, json.dumps(runs))
    assert out.split() == [word for name in BOUND_RUNS for word in (name, "False")]
    digests = {name: report_digest(tmp_path / f"{name}.json") for name in BOUND_RUNS}
    assert digests == {name: digest for name, (_args, digest) in BOUND_RUNS.items()}


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_cli_runs_blas_on_one_thread_unless_a_count_is_set(tmp_path):
    # ENV was taken after this module imported the CLI, so it may already
    # hold the CLI's own setting
    bare = {k: v for k, v in ENV.items() if k not in BLAS_THREADS}
    show = ("import json, os, sys\n"
            "import gaugebounds.cli\n"
            f"print(json.dumps([{{k: os.environ[k] for k in {BLAS_THREADS!r} if k in os.environ}},"
            " 'numpy' in sys.modules]))\n")
    assert json.loads(python("-c", show, env=bare)) == [{"OPENBLAS_NUM_THREADS": "1"}, False]
    for name, value in (("OMP_NUM_THREADS", "3"), ("OPENBLAS_NUM_THREADS", "2"),
                        ("GOTO_NUM_THREADS", "2")):
        out = python("-c", show, env=dict(bare, **{name: value}))
        assert json.loads(out) == [{name: value}, False]
    # bound still runs without numpy under the policy
    args, digest = BOUND_RUNS["excess-process"]
    out = tmp_path / "bound.json"
    code = ("import sys; from gaugebounds.cli import main\n"
            "assert main(sys.argv[1:]) == 0; print('numpy' in sys.modules)")
    assert python("-c", code, "bound", *args, "--out", str(out), env=bare).split() == ["False"]
    assert report_digest(out) == digest


def test_threaded_coverage_in_a_fresh_process_matches_one_thread(tmp_path):
    # validate --threads 2 starts its pool in a process whose modules are
    # lazy stubs; every module it uses must have loaded before the pool runs
    args = ["validate", "--check", "coverage", "--process", "cycle:N=20,p=0.3", "--n", "64",
            "--trials", "40", "--mc-fresh", "200", "--seed", "3"]
    python("-c", CLI_MAIN, *args, "--threads", "2", "--out", str(tmp_path / "two.json"))
    assert main([*args, "--threads", "1", "--out", str(tmp_path / "one.json")]) == 0
    reports = [json.loads((tmp_path / f"{side}.json").read_text()) for side in ("one", "two")]
    for report in reports:
        del report["generated_at"]
    assert reports[0] == reports[1]
    assert reports[0]["trials"] == 40
