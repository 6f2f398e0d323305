"""Traced launcher for one gaugebounds CLI process.

Usage (from run.py only): python3 perfbench/shim.py <cli arguments...>

It imports gaugebounds.cli, replaces each traced public function at every
place a caller looks it up (the gaugebounds modules import them by name, so
patching only the defining module would miss most calls), then runs
gaugebounds.cli.main with the given arguments.  Spans are kept in memory and
written as JSON when main returns.  The clock is CLOCK_MONOTONIC, which the
parent run.py process shares, so child spans line up with its spans.

Environment (set by run.py):
  PERFBENCH_SPANS   file to write the span list to
  PERFBENCH_JOB     job id stored on every span
  PERFBENCH_PARENT  id of run.py's span for this process

A span is [id, name, start, end, parent_id, job_id, attrs]; attrs holds the
exact work counts taken at the layer boundary: pairs (gauge pairs the
definition requires), distance_evaluations (read from the backend after the
call), points, bytes.  For the layers whose per-call results run.py checks
against the reference, attrs also holds the result: value (missing_mass_Gt,
true_missing_mass) or mins_sha256 (digest of prefix_min_profile's minima).
"""

import functools
import hashlib
import inspect
import json
import os
import sys
import time

import gaugebounds
import gaugebounds.cli

_now = time.monotonic

# defining module -> traced functions
TRACED = {
    "pathio": ("write_path", "read_path"),
    "processes": ("simulate", "embed"),
    "estimators": ("good_turing", "prefix_min_profile", "true_missing_mass",
                   "missing_mass_G", "missing_mass_Gt"),
    "nnindex": ("prefix_min_indexed", "leave_one_out_min"),
    "bounds": ("excess_loss_probability_bound", "risk_bound"),
    "verify": ("validate_excess_loss_coverage", "decay_study"),
}


class Tracer:
    def __init__(self, job, parent):
        self.job = job
        self.spans = []
        self.stack = [parent]

    def span(self, name, fn, attrs):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = f"{self.stack[0]}.{len(self.spans)}"
            record = [sid, name, _now(), None, self.stack[-1], self.job, {}]
            self.spans.append(record)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = _now()
                self.stack.pop()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                record[6] = attrs(bound.arguments, result)
            return result

        return wrapper


def _prefix_pairs(a):
    """Admissible (query, candidate) pairs of the prefix-min definition."""
    n_eff = len(a["path"]) - a["tau"]
    pairs = n_eff * (n_eff + 1) // 2
    if a.get("exceptions") is not None:
        # entry j admits candidates i <= j, so excluding i removes n_eff - i pairs
        pairs -= sum(n_eff - i for i in a["exceptions"].indices)
    return pairs


def _loo_pairs(a):
    return len(a["path"]) * (len(a["path"]) - 1)


def _backend_evals(a):
    backend = a.get("backend")
    return {} if backend is None else {"distance_evaluations": backend.distance_evaluations}


ATTRS = {
    "write_path": lambda a, _r: {"bytes": os.path.getsize(a["file"])},
    "read_path": lambda a, _r: {"bytes": os.path.getsize(a["file"])},
    "embed": lambda a, _r: {"points": len(a["path"])},
    "good_turing": lambda a, _r: {"pairs": _loo_pairs(a)},
    "prefix_min_profile": lambda a, r: {"pairs": _prefix_pairs(a),
                                        "mins_sha256": hashlib.sha256(r.mins.tobytes()).hexdigest()},
    "missing_mass_Gt": lambda _a, r: {"value": r},
    "prefix_min_indexed": lambda a, _r: {"pairs": _prefix_pairs(a), **_backend_evals(a)},
    "leave_one_out_min": lambda a, _r: {"pairs": _loo_pairs(a), **_backend_evals(a)},
    "true_missing_mass": lambda a, r: {"pairs": len(a["path"]) * r.n_draws, "value": r.value},
}


def install(tracer):
    """Swap every reference to a traced function in the loaded gaugebounds
    modules for one wrapper per function."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gaugebounds" or name.startswith("gaugebounds."))]
    for mod_name, names in TRACED.items():
        home = sys.modules[f"gaugebounds.{mod_name}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = tracer.span(f"{mod_name}.{fname}", original, ATTRS.get(fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def main():
    tracer = Tracer(os.environ["PERFBENCH_JOB"], os.environ["PERFBENCH_PARENT"])
    install(tracer)
    cli_main = tracer.span("cli.main", gaugebounds.cli.main, None)
    try:
        return cli_main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
