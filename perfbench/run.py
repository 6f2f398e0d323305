"""Benchmark of the gaugebounds command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0

It drives the real CLI as a user's shell script would: one child process per
command, one at a time, from this single process, with --threads 1 where a
subcommand takes it.  Each workload is a closed loop with one client; a job
is the unit timed, and a new job starts only while one more of the average
length still fits in --seconds of summed job time.  Inputs come only from
--seed.  After the loop, every output is checked against the plain-numpy
reference in reference.py; a job fails on a nonzero exit, an error JSON on
stderr, or any output that differs.

Workloads (why each one is here: see WORKLOADS below):
  cli-pipeline     simulate -> estimate --t -> bound excess-loss -> bound risk
  study-raster     one reduced decay study at D = 256
  coverage-circle  one excess-loss coverage validation at D = 1

--trace 0 prints the end-to-end metrics: setup_s (median of SETUPS set-ups,
each a fresh workspace plus one warm-up invocation), job_s and job_cpu_s
(medians over jobs; CPU is user+sys of the job's child processes) and
peak_rss_mb (largest max-RSS of any job's child).  Failed jobs are counted
in the "failed" field; failed / attempted is the failure fraction.

--trace 1 runs pairs of jobs on identical inputs, one traced through shim.py
and one not, alternating which goes first.  It prints the per-layer metrics
(medians over traced jobs of per-job sums; every time is a self time), the
tracing overhead, and checks that the traced outputs are byte-identical to
the untraced ones apart from the generated_at field.  On coverage-circle it
also checks the per-trial results the shim recorded (each prefix profile,
G_t and the Monte Carlo truth) against the reference.

Each run leaves a result file with an environment record in perfbench/_runs/,
and a traced run also a span dump and a per-layer table there.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUNS = HERE / "_runs"
CLI_MAIN = "import sys; from gaugebounds.cli import main; sys.exit(main())"
SETUPS = 3
CHILD_TIMEOUT_S = 150
MAX_JOBS = 256
_now = time.monotonic


class JobFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Launcher:
    """Runs CLI processes one at a time and keeps what each one cost."""

    def __init__(self, env, traced=False, job_id=None, spans=None):
        self.env = env
        self.traced = traced
        self.job_id = job_id
        self.spans = spans          # this process's spans of a traced job
        self.children = []          # (wall_s, cpu_s, maxrss_mb) per process

    def __call__(self, cwd, *args):
        step = len(self.children)
        env = self.env
        if self.traced:
            proc_id = f"{self.job_id}.p{step}"
            env = dict(env, PERFBENCH_SPANS=str(cwd / f"spans{step}.json"),
                       PERFBENCH_JOB=self.job_id, PERFBENCH_PARENT=proc_id)
            argv = [sys.executable, str(HERE / "shim.py"), *args]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        with open(cwd / f"stderr{step}.txt", "wb") as err:
            t0 = _now()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.append((t1 - t0, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0))
        if self.traced:
            self._link_spans(cwd / f"spans{step}.json", proc_id, t0, t1)
        stderr = (cwd / f"stderr{step}.txt").read_text()
        if proc.returncode != 0 or '"error"' in stderr:
            raise JobFailed(f"{args[0]} exited {proc.returncode}: {stderr.strip()[-300:]}")

    def _link_spans(self, path, proc_id, t_spawn, t_reaped):
        if not path.exists():
            return
        child_spans = json.loads(path.read_text())
        main_span = next(s for s in child_spans if s[1] == "cli.main")
        self.spans.append([proc_id, "cli.process", t_spawn, t_reaped, self.job_id, self.job_id, {}])
        self.spans.append([proc_id + ".start", "cli.startup", t_spawn, main_span[2], proc_id,
                           self.job_id, {}])
        self.spans.append([proc_id + ".exit", "cli.exit", main_span[3], t_reaped, proc_id,
                           self.job_id, {}])
        self.spans.extend(child_spans)


# ---------------------------------------------------------------------------
# workloads: warm-up, job, outputs, reference check
# ---------------------------------------------------------------------------

PIPE = {"process": "torus:p=0.1", "embedding": "raster:scaling=true", "n": 1024,
        "tau": 22, "t": 0.2, "delta": 0.05, "p": 0.1}
STUDY = {"sizes": [2 ** k for k in range(1, 13)], "p_list": [1.0, 0.1, 0.001],
         "n_seeds": 1, "tau": 1}
COVER = {"n": 256, "tau": 1, "t": 0.1, "delta": 0.1, "trials": 500, "mc_fresh": 2000}


def pipeline_warmup(run, wd, seed):
    run(wd, "simulate", "--process", PIPE["process"], "--embedding", PIPE["embedding"],
        "--n", "32", "--seed", str(seed), "--out", "warm.csv")


def pipeline_job(run, wd, seed):
    n, tau, t, delta = (str(PIPE[k]) for k in ("n", "tau", "t", "delta"))
    run(wd, "simulate", "--process", PIPE["process"], "--embedding", PIPE["embedding"],
        "--n", n, "--seed", str(seed), "--out", "path.csv")
    run(wd, "estimate", "--in", "path.csv", "--gauge", "lipschitz:L=1", "--tau", tau,
        "--t", t, "--backend", "indexed", "--threads", "1", "--out", "estimate.json",
        "--dump-profile", "profile.csv")
    est = json.loads((wd / "estimate.json").read_text())
    run(wd, "bound", "--kind", "excess-loss", "--gt", repr(est["g_t"]), "--t", t, "--n", n,
        "--tau", tau, "--delta", delta, "--process", PIPE["process"], "--out", "excess.json")
    run(wd, "bound", "--kind", "risk", "--g", repr(est["g"]), "--n", n, "--tau", tau,
        "--delta", delta, "--process", PIPE["process"], "--sup-f", "1", "--sup-g", "1",
        "--out", "risk.json")


def pipeline_reference(seed):
    path = ref.raster(ref.template(ROOT), ref.torus_chain(seed, PIPE["n"], PIPE["p"]))
    mins = ref.prefix_mins(path, PIPE["tau"])
    n_eff = PIPE["n"] - PIPE["tau"]
    phi = (1.0 - PIPE["p"]) ** PIPE["tau"]
    gt = ref.exceed_frac(mins, PIPE["t"])
    g = ref.mean_in_order(mins)
    return {"path": path, "mins": mins, "g": g, "g_t": gt,
            "good_turing": ref.exceed_frac(ref.loo_mins(path), PIPE["t"]),
            "excess": ref.excess_loss_total(gt, phi, n_eff, PIPE["delta"]),
            "risk": ref.risk_total(g, phi, n_eff, PIPE["delta"])}


def pipeline_check(wd, want):
    errors = []
    path = np.loadtxt(wd / "path.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(path, want["path"]):
        errors.append("path.csv differs from the reference path")
    prof = np.loadtxt(wd / "profile.csv", delimiter=",", skiprows=1, ndmin=2)
    n_eff = len(want["mins"])
    if (prof.shape != (n_eff, 3) or not np.array_equal(prof[:, 2], want["mins"])
            or not np.array_equal(prof[:, 1], np.arange(n_eff) + PIPE["tau"])):
        errors.append("profile.csv differs from the reference profile")
    est = json.loads((wd / "estimate.json").read_text())
    for key in ("g", "g_t", "good_turing"):
        if est.get(key) != want[key]:
            errors.append(f"estimate {key}={est.get(key)!r}, reference {want[key]!r}")
    for name in ("excess", "risk"):
        total = json.loads((wd / f"{name}.json").read_text()).get("total")
        if total != want[name]:
            errors.append(f"{name} bound total={total!r}, reference {want[name]!r}")
    return errors


def study_args(seed, sizes, out):
    return ["study", "--process", "torus:p=0.5", "--embedding", "raster:scaling=true",
            "--gauge", "lipschitz:L=1", "--tau", str(STUDY["tau"]),
            "--sizes", ",".join(map(str, sizes)),
            "--p-list", ",".join(format(p, "g") for p in STUDY["p_list"]),
            "--n-seeds", str(STUDY["n_seeds"]), "--seed", str(seed), "--backend", "indexed",
            "--threads", "1", "--out", f"{out}.csv", "--long-out", f"{out}_long.csv"]


def study_warmup(run, wd, seed):
    run(wd, *study_args(seed, [2, 4], "warm"))


def study_job(run, wd, seed):
    run(wd, *study_args(seed, STUDY["sizes"], "study"))


def study_reference(seed):
    tpl = ref.template(ROOT)
    k, tau, n_max = STUDY["n_seeds"], STUDY["tau"], STUDY["sizes"][-1]
    seeds = ref.trial_seeds(seed, len(STUDY["p_list"]) * k)
    rows = {}
    for vi, p in enumerate(STUDY["p_list"]):
        paths = [ref.raster(tpl, ref.torus_chain(int(seeds[vi * k + si]), n_max, p))
                 for si in range(k)]
        profiles = [ref.prefix_mins(x, tau) for x in paths]
        tau_mix = ref.mixing_time(p)
        for s in STUDY["sizes"]:
            gs = np.asarray([ref.mean_in_order(m[: s - tau]) for m in profiles])
            rows[(p, s)] = (float(gs.mean()), float(gs.std(ddof=1)) if k > 1 else 0.0,
                            k, tau_mix, tau_mix / s)
    return rows


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def study_check(wd, want):
    errors = []
    got = {}
    for p, n, mean_g, std_g, n_seeds, tau_mix, tau_over_n in _csv_rows(wd / "study.csv"):
        got[(float(p), int(n))] = (float(mean_g), float(std_g), int(n_seeds), int(tau_mix),
                                   float(tau_over_n))
    if got != want:
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        errors.append(f"study.csv differs from the reference at (p, n) in {bad[:5]}")
    want_long = set()
    for (p, s), row in want.items():
        if row[0] > 0:
            want_long.add((p, "ln_G", math.log(s), math.log(row[0])))
        want_long.add((p, "ln_tau_over_n", math.log(s), math.log(row[4])))
    got_long = {(float(p), series, float(ln_n), float(v))
                for p, series, ln_n, v in _csv_rows(wd / "study_long.csv")}
    if got_long != want_long:
        errors.append("study_long.csv differs from the reference")
    return errors


def coverage_args(seed, trials, n, mc_fresh, out):
    return ["validate", "--check", "coverage", "--process", "iid:space=circle",
            "--embedding", "identity", "--L", "1", "--t", str(COVER["t"]),
            "--tau", str(COVER["tau"]), "--n", str(n), "--delta", str(COVER["delta"]),
            "--trials", str(trials), "--mc-fresh", str(mc_fresh), "--seed", str(seed),
            "--threads", "1", "--out", out]


def coverage_warmup(run, wd, seed):
    run(wd, *coverage_args(seed, 2, 16, 16, "warm.json"))


def coverage_job(run, wd, seed):
    run(wd, *coverage_args(seed, COVER["trials"], COVER["n"], COVER["mc_fresh"], "coverage.json"))


def coverage_reference(seed):
    trials, n, tau, t, m = (COVER[k] for k in ("trials", "n", "tau", "t", "mc_fresh"))
    seeds = ref.trial_seeds(seed, 2 * trials)
    violations = 0
    per_trial = {"mins_sha256": [], "g_t": [], "p_hat": []}
    for i in range(trials):
        x = ref.iid_circle(int(seeds[i]), n)
        mins = ref.prefix_mins(x, tau)
        gt = ref.exceed_frac(mins, t)
        rhs = ref.excess_loss_total(gt, 0.0, n - tau, COVER["delta"])
        fresh = ref.philox(np.random.SeedSequence(int(seeds[trials + i]))).random((m, 1))
        p_hat = ref.exceed_frac(ref.nearest(fresh, x[: n - tau]), t)
        violations += p_hat - 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / m) > rhs
        per_trial["mins_sha256"].append(hashlib.sha256(mins.tobytes()).hexdigest())
        per_trial["g_t"].append(gt)
        per_trial["p_hat"].append(p_hat)
    return {"trials": trials, "violations": int(violations),
            "violation_rate": violations / trials, "target": COVER["delta"],
            "p_value": ref.binom_sf(int(violations), trials, COVER["delta"]),
            "per_trial": per_trial}


def coverage_check(wd, want):
    got = json.loads((wd / "coverage.json").read_text())
    errors = [f"coverage {key}={got.get(key)!r}, reference {want[key]!r}"
              for key in ("trials", "violations", "violation_rate", "target")
              if got.get(key) != want[key]]
    # scipy's binomial tail against the exact rational one: rounding only
    if not math.isclose(got.get("p_value", -1.0), want["p_value"], rel_tol=1e-9, abs_tol=1e-300):
        errors.append(f"coverage p_value={got.get('p_value')!r}, reference {want['p_value']!r}")
    if got.get("passed") != (want["p_value"] >= 1e-3):
        errors.append("coverage passed flag disagrees with the p-value rule")
    return errors


def coverage_trace_check(spans, want):
    """Per-trial results the shim recorded, in call order, against the reference.

    At t = 0.1 a fresh draw more than t from all 255 head points has a
    chance below 1e-10 per trial, so the Monte Carlo truth is 0 in every
    trial and the violation count cannot see errors in the prefix scan or
    the truth kernel; these comparisons can.
    """
    recorded = [("estimators.prefix_min_profile", "mins_sha256", "mins_sha256"),
                ("estimators.missing_mass_Gt", "value", "g_t"),
                ("estimators.true_missing_mass", "value", "p_hat")]
    errors = []
    for span_name, attr, key in recorded:
        got = [s[6].get(attr) for s in spans if s[1] == span_name]
        bad = [i for i, (a, b) in enumerate(zip(got, want["per_trial"][key])) if a != b]
        if len(got) != len(want["per_trial"][key]) or bad:
            errors.append(f"{span_name} {attr}: {len(got)} calls, trials {bad[:5]} differ "
                          "from the reference")
    return errors


WORKLOADS = {
    # The README flow, a fresh seed per job.  The only workload that starts
    # four processes per job, writes and reads a path CSV, and runs the
    # naive O(n^2) Good-Turing scan at D = 256.
    "cli-pipeline": dict(dim=256, fresh_seed_per_job=True, warmup=pipeline_warmup,
                         job=pipeline_job, reference=pipeline_reference,
                         check=pipeline_check, trace_check=None,
                         outputs=("path.csv", "profile.csv", "estimate.json",
                                  "excess.json", "risk.json")),
    # Reduced criterion-6 decay study: metric-indexed prefix minima and raster
    # embedding at D = 256; near-duplicate (p = 0.001) to spread-out (p = 1)
    # point sets.  No file reads, no Good-Turing, no Monte Carlo truth.
    "study-raster": dict(dim=256, fresh_seed_per_job=False, warmup=study_warmup,
                         job=study_job, reference=study_reference, check=study_check,
                         trace_check=None,
                         outputs=("study.csv", "study_long.csv")),
    # Criterion 3's Monte Carlo branch: many small problems at D = 1, mostly
    # true missing mass against fresh draws and the naive prefix scan.
    "coverage-circle": dict(dim=1, fresh_seed_per_job=False, warmup=coverage_warmup,
                            job=coverage_job, reference=coverage_reference,
                            check=coverage_check, trace_check=coverage_trace_check,
                            outputs=("coverage.json",)),
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}

UNITS = {"s": "s", "self_s": "s", "calls": "count", "pairs": "count", "points": "count",
         "distance_evaluations": "count", "bytes": "bytes", "pair_rate": "1/s",
         "eval_ratio": "ratio"}

# (span name, fields); every ".s" and ".self_s" is the span's self time
LAYERS = [
    ("pathio.write_path", ("s", "bytes")),
    ("pathio.read_path", ("s", "bytes")),
    ("processes.simulate", ("s", "calls")),
    ("processes.embed", ("s", "points")),
    ("estimators.good_turing", ("s", "pairs", "pair_rate")),
    ("estimators.prefix_min_profile", ("s", "calls", "pairs", "pair_rate")),
    ("estimators.true_missing_mass", ("s", "pairs", "pair_rate")),
    ("estimators.missing_mass_G", ("s",)),
    ("estimators.missing_mass_Gt", ("s",)),
    ("nnindex.prefix_min_indexed", ("s", "calls", "pairs", "distance_evaluations",
                                    "eval_ratio", "pair_rate")),
    ("nnindex.leave_one_out_min", ("s", "distance_evaluations")),
    ("bounds.excess_loss_probability_bound", ("s", "calls")),
    ("bounds.risk_bound", ("s", "calls")),
    ("verify.validate_excess_loss_coverage", ("self_s",)),
    ("verify.decay_study", ("self_s",)),
]
COUNT_FIELDS = ("calls", "pairs", "distance_evaluations", "points", "bytes")


def per_layer_spec():
    """[(metric name, unit, better)] of every per-layer metric, in print order."""
    spec = [("cli.startup_s", "s", "lower"), ("cli.startup_per_invocation_s", "s", "lower"),
            ("cli.main.self_s", "s", "lower"), ("cli.exit_s", "s", "lower"),
            ("cli.invocations", "count", "lower")]
    for layer, fields in LAYERS:
        spec += [(f"{layer}.{f}", UNITS[f], "higher" if f == "pair_rate" else "lower")
                 for f in fields]
    spec += [("trace.job_s", "s", "lower"), ("trace.untraced_job_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower"), ("trace.unattributed_s", "s", "lower")]
    return spec


def job_layers(spans):
    """Per-layer self times and counts of one traced job."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    agg = {}
    for sid, name, start, end, _parent, _job, attrs in spans:
        a = agg.setdefault(name, dict.fromkeys(("self",) + COUNT_FIELDS, 0))
        a["self"] += (end - start) - sum(c[3] - c[2] for c in children.get(sid, ()))
        a["calls"] += 1
        for key in COUNT_FIELDS:
            a[key] += attrs.get(key, 0)
    get = lambda name, key: agg.get(name, {}).get(key, 0)
    m = {"cli.startup_s": get("cli.startup", "self"),
         "cli.main.self_s": get("cli.main", "self"),
         "cli.exit_s": get("cli.exit", "self"),
         "cli.invocations": get("cli.process", "calls")}
    m["cli.startup_per_invocation_s"] = m["cli.startup_s"] / max(1, m["cli.invocations"])
    for layer, fields in LAYERS:
        for f in fields:
            if f in ("s", "self_s"):
                value = get(layer, "self")
            elif f == "pair_rate":
                value = get(layer, "pairs") / get(layer, "self") if get(layer, "self") else 0.0
            elif f == "eval_ratio":
                value = (get(layer, "distance_evaluations") / get(layer, "pairs")
                         if get(layer, "pairs") else 0.0)
            else:
                value = get(layer, f)
            m[f"{layer}.{f}"] = value
    m["trace.unattributed_s"] = get("job", "self") + get("cli.process", "self")
    return m


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _openblas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    """Host, library and source-tree facts stored with every result."""
    from importlib import metadata

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    commit = _git("rev-parse", "HEAD") if in_repo else None
    dirty = src_dirty = None
    if in_repo:
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
        src_status = _git("status", "--porcelain", "--", "src")
        src_dirty = None if src_status is None else bool(src_status)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "openblas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": commit,
        "git_dirty": dirty,
        "git_src_dirty": src_dirty,
    }


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _strip_timestamp(path):
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if not line.lstrip().startswith(b'"generated_at"'))


def run_job(wl, env, wd, seed, job_id, traced):
    wd.mkdir()
    spans = [] if traced else None
    launch = Launcher(env, traced=traced, job_id=job_id, spans=spans)
    t0 = _now()
    error = None
    try:
        wl["job"](launch, wd, seed)
    except JobFailed as err:
        error = str(err)
    t1 = _now()
    if traced:
        spans.append([job_id, "job", t0, t1, None, job_id, {}])
    kids = launch.children
    return {"id": job_id, "seed": seed, "traced": traced, "dir": wd,
            "wall_s": t1 - t0, "cpu_s": sum(c[1] for c in kids),
            "maxrss_mb": max((c[2] for c in kids), default=0.0),
            "error": error, "spans": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaugebounds" / "cli.py").is_file():
        sys.stderr.write(f"no gaugebounds sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job_seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(MAX_JOBS)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work = RUNS / f"{tag}.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups, setup_error = [], None
        for k in range(SETUPS if args.trace == 0 else 1):
            t0 = _now()
            wd = work / f"setup{k}"
            wd.mkdir()
            try:
                wl["warmup"](Launcher(env), wd, job_seeds[0])
            except JobFailed as err:
                setup_error = f"warm-up: {err}"
            setups.append(_now() - t0)

        # start another job (a pair when traced) only if one more of the
        # average length still fits, so a run never measures much past --seconds
        jobs, measured, per_unit = [], 0.0, 2 if args.trace else 1
        while not jobs or (measured * (1 + per_unit / len(jobs)) <= args.seconds
                           and len(jobs) < MAX_JOBS - 1):
            k = len(jobs) // per_unit
            seed = job_seeds[k] if wl["fresh_seed_per_job"] else job_seeds[0]
            if args.trace:
                order = (True, False) if k % 2 == 0 else (False, True)
                for traced in order:
                    kind = "traced" if traced else "plain"
                    jobs.append(run_job(wl, env, work / f"job{k}-{kind}", seed,
                                        f"j{k}{kind[0]}", traced))
            else:
                jobs.append(run_job(wl, env, work / f"job{k}", seed, f"j{k}", False))
            measured = sum(j["wall_s"] for j in jobs)

        wanted = {}
        for job in jobs:
            if job["error"] is None:
                if job["seed"] not in wanted:
                    wanted[job["seed"]] = wl["reference"](job["seed"])
                try:
                    errors = wl["check"](job["dir"], wanted[job["seed"]])
                    if job["traced"] and wl["trace_check"]:
                        errors += wl["trace_check"](job["spans"], wanted[job["seed"]])
                except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
                    errors = [f"unreadable output: {err!r}"]
                job["error"] = "; ".join(errors) or None
        if args.trace:
            for first, second in zip(jobs[0::2], jobs[1::2]):
                pair = sorted((first, second), key=lambda j: j["traced"])
                if all(j["error"] is None for j in pair):
                    diff = [name for name in wl["outputs"]
                            if _strip_timestamp(pair[0]["dir"] / name)
                            != _strip_timestamp(pair[1]["dir"] / name)]
                    if diff:
                        pair[1]["error"] = f"traced outputs differ from untraced: {diff}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(j["error"] is not None for j in jobs)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "dim": wl["dim"], "job_seeds": sorted({j["seed"] for j in jobs}),
              "environment": environment(), "setup_samples_s": setups,
              "setup_error": setup_error,
              "jobs": [{k: v for k, v in j.items() if k not in ("dir", "spans")} for j in jobs]}

    if args.trace == 0:
        values = {"setup_s": statistics.median(setups),
                  "job_s": statistics.median(j["wall_s"] for j in jobs),
                  "job_cpu_s": statistics.median(j["cpu_s"] for j in jobs),
                  "peak_rss_mb": max(j["maxrss_mb"] for j in jobs)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        traced = [j for j in jobs if j["traced"]]
        per_job = [job_layers(j["spans"]) for j in traced]
        values = {name: statistics.median(m[name] for m in per_job)
                  for name, _unit, _better in per_layer_spec() if not name.startswith("trace.")}
        values["trace.job_s"] = statistics.median(j["wall_s"] for j in traced)
        values["trace.untraced_job_s"] = statistics.median(
            j["wall_s"] for j in jobs if not j["traced"])
        values["trace.overhead_s"] = values["trace.job_s"] - values["trace.untraced_job_s"]
        values["trace.unattributed_s"] = statistics.median(
            m["trace.unattributed_s"] for m in per_job)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in per_layer_spec()}
        result["per_job_layers"] = per_job
        spans = [s for j in traced for s in j["spans"]]
        (RUNS / f"{tag}.spans.json").write_text(json.dumps(spans))
        table = layer_table(metrics, wl["dim"])
        (RUNS / f"{tag}.layers.tsv").write_text(table)
        print(table, end="")
    result["metrics"] = metrics
    result["failed"] = failed
    (RUNS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    for job in jobs:
        if job["error"]:
            print(f"FAILED {job['id']} seed={job['seed']}: {job['error']}")
    if setup_error:
        print(f"FAILED setup: {setup_error}")
    if args.trace == 0:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / len(jobs):.6g} ({failed} of {len(jobs)} jobs)")
    print(json.dumps({"correct": failed == 0 and setup_error is None, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


def self_time_shares(metrics):
    """Each layer's self time as a share of the traced job_s."""
    job_s = metrics["trace.job_s"]["value"]
    return {name: m["value"] / job_s for name, m in metrics.items()
            if m["unit"] == "s" and not name.startswith("trace.") and "per_" not in name}


def layer_table(metrics, dim):
    """Per-layer table; self times also as a share of the traced job."""
    shares = self_time_shares(metrics)
    lines = [f"# per-layer metrics, medians over traced jobs (D = {dim}); "
             "share = self time / traced job_s\n",
             "metric\tvalue\tunit\tshare\n"]
    for name, m in metrics.items():
        share = f"{shares[name]:.3f}" if name in shares else ""
        lines.append(f"{name}\t{m['value']:.6g}\t{m['unit']}\t{share}\n")
    return "".join(lines)


if __name__ == "__main__":
    sys.exit(main())
