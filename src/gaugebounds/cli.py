"""Command-line surface: simulate, estimate, bound, validate, study.

All randomness flows from a single --seed, so a run is reproducible from
one integer: simulate spawns three sub-streams from it (numpy
SeedSequence); validate --check coverage and study draw per-trial seeds
with SeedSequence(seed).generate_state; validate --check martingale and
good-turing seed one Philox generator with it.  Reports are JSON with a
fixed field order (plus a trailing generated_at timestamp); tables are
CSV.  Every failure prints one line of machine-readable error JSON to
stderr and exits nonzero: 2 for a malformed command line, 1 for any other
failure.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import sys
from dataclasses import asdict, astuple
from datetime import datetime, timezone
from pathlib import Path as FsPath

# BLAS runs on one thread unless the caller set a count.  OpenBLAS reads the
# count once, when numpy loads it, which this module does only later, in the
# subcommands.  Its second thread costs more than it gives here: on a 2-vCPU
# VM `import numpy` took 0.16 s against 0.10 s on one thread, a `simulate`
# of 1024 raster rows 0.36 against 0.30 s, and the screen, whose centres
# come from a sample and whose products are BLAS-3, ran no slower on one
# thread than the kernel before it on two.  The minima are exact kernel
# values, so the count cannot change them.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _lazy_module(name: str):
    """The package's module `name`, registered in sys.modules and bound on
    the package, as an imported submodule is, as a stub that runs the module
    on its first attribute access (importlib.util.LazyLoader).  On Python
    3.10 and 3.11 that first access is not locked, so a handler touches
    every module it uses before it starts a thread pool."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


# Each subcommand loads only the modules it calls, so `bound` runs without
# numpy.  The stubs stand in sys.modules like imported modules: the
# benchmark's tracer, perfbench/shim.py, looks its traced modules up there,
# nnindex among them, right after importing this one.
bounds, estimators, geometry, pathio, processes, verify = map(
    _lazy_module, ("bounds", "estimators", "geometry", "pathio", "processes", "verify"))
_lazy_module("nnindex")

__all__ = ["main", "parse_process", "parse_gauge", "parse_embedding"]


class _SpecKeys(dict):
    """The key=value pairs of one spec.  A parser pops each key it reads, so
    the keys left over were never read.  A key given twice fails, and a
    missing required key names the spec."""

    def __init__(self, text: str, body: str):
        super().__init__()
        self.text = text
        if not body:
            return
        for item in body.split(","):
            if "=" not in item:
                raise ValueError(f"expected key=value, got {item!r}")
            key, value = (part.strip() for part in item.split("=", 1))
            if key in self:
                raise ValueError(f"spec {text!r} repeats the key {key!r}")
            self[key] = value

    def pop(self, key, *default):
        if key not in self and not default:
            raise ValueError(f"spec {self.text!r} is missing the key {key!r}")
        return super().pop(key, *default)


def _spec_parser(parse):
    """Turns parse(name, keys, ...) into a parser of the whole spec text
    that rejects a key parse did not read."""
    @functools.wraps(parse)
    def parser(text: str, *args, **kwargs):
        name, _, body = text.partition(":")
        kv = _SpecKeys(text, body)
        spec = parse(name.strip().lower(), kv, *args, **kwargs)
        if kv:
            raise ValueError(f"spec {text!r} has the unknown key {next(iter(kv))!r}")
        return spec
    return parser


@_spec_parser
def parse_process(name: str, kv: _SpecKeys, seed: int = 0) -> bounds.ProcessSpec:
    """cycle:N=100,p=0.5 | circle:zeta=0.38,p=0.1 | torus:zeta1=..,zeta2=..,p=..
    | iid:space=circle[,N=..]  (zeta values default to the built-in irrationals)"""
    if name == "cycle":
        return bounds.ProcessSpec.cycle_chain(int(kv.pop("N")), float(kv.pop("p")), seed=seed)
    if name == "circle":
        kwargs = {"p": float(kv.pop("p", 0.0)), "seed": seed}
        if "zeta" in kv:
            kwargs["zeta"] = float(kv.pop("zeta"))
        return bounds.ProcessSpec.circle_rotation(**kwargs)
    if name == "torus":
        kwargs = {"p": float(kv.pop("p", 0.0)), "seed": seed}
        if "zeta1" in kv:
            kwargs["zeta1"] = float(kv.pop("zeta1"))
        if "zeta2" in kv:
            kwargs["zeta2"] = float(kv.pop("zeta2"))
        return bounds.ProcessSpec.torus_rotation(**kwargs)
    if name == "iid":
        n_states = int(kv.pop("N")) if "N" in kv else None
        return bounds.ProcessSpec.iid_uniform(kv.pop("space"), n_states=n_states, seed=seed)
    raise ValueError(f"unknown process {name!r}")


@_spec_parser
def parse_gauge(name: str, kv: _SpecKeys) -> geometry.GaugeSpec:
    """lipschitz:L=1[,metric=discrete] | discrete | smooth:gamma=..,lambda=..
    | regression:L=.. | hinge:L=.. | local-lipschitz:r0=.. | local-smooth:c=.."""
    if name == "lipschitz":
        return geometry.GaugeSpec.lipschitz(float(kv.pop("L")),
                                            metric=kv.pop("metric", "euclidean"))
    if name == "discrete":
        return geometry.GaugeSpec.discrete()
    if name == "smooth":
        return geometry.GaugeSpec.smooth(float(kv.pop("gamma")), float(kv.pop("lambda")))
    if name == "regression":
        return geometry.GaugeSpec.regression(float(kv.pop("L")))
    if name == "hinge":
        return geometry.GaugeSpec.hinge_classification(float(kv.pop("L")))
    if name in ("local-lipschitz", "local_lipschitz"):
        return geometry.GaugeSpec.local_lipschitz_truncated(float(kv.pop("r0")))
    if name in ("local-smooth", "local_smooth"):
        return geometry.GaugeSpec.local_smooth(float(kv.pop("c")))
    raise ValueError(f"unknown gauge {name!r}")


# the values a spec's on/off key takes, in any case
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@_spec_parser
def parse_embedding(name: str, kv: _SpecKeys) -> processes.EmbeddingSpec:
    """identity | fourier:D=8 | raster[:scaling=true]"""
    if name == "identity":
        return processes.EmbeddingSpec.identity()
    if name == "fourier":
        return processes.EmbeddingSpec.fourier(int(kv.pop("D")))
    if name == "raster":
        scaling = kv.pop("scaling", "false")
        if scaling.lower() not in _FLAGS:
            raise ValueError(f"scaling must be 1/0/true/false/yes/no, got {scaling!r}")
        return processes.EmbeddingSpec.raster_rotation(with_scaling=_FLAGS[scaling.lower()])
    raise ValueError(f"unknown embedding {name!r}")


@_spec_parser
def _parse_chain(name: str, kv: _SpecKeys) -> verify.IidBernoulli | verify.MarkovModulatedBernoulli:
    """martingale: iid:q=.. | mmb:stay0=..,stay1=..,q0=..,q1=.."""
    if name == "iid":
        return verify.IidBernoulli(q=float(kv.pop("q")))
    if name == "mmb":
        return verify.MarkovModulatedBernoulli(
            stay0=float(kv.pop("stay0")), stay1=float(kv.pop("stay1")),
            q0=float(kv.pop("q0")), q1=float(kv.pop("q1")),
        )
    raise ValueError(f"unknown chain {name!r}")


def _write_json(payload: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    # reports hold plain Python values; a NaN, an infinity or a numpy value
    # fails the command rather than being written
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if out:
        FsPath(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    proc = parse_process(args.process, seed=args.seed)
    emb = parse_embedding(args.embedding)
    path = processes.embed(emb, processes.simulate(proc, args.n))
    pathio.write_path(path, args.out)
    return 0


def _cmd_estimate(args) -> int:
    gauge = parse_gauge(args.gauge)
    indices = tuple(int(i) for i in args.exclude.split(",")) if args.exclude else None
    path = pathio.read_path(args.infile)
    exceptions = None
    if indices is not None:
        exceptions = estimators.ExceptionSet(indices=indices,
                                             n_eff=bounds._n_eff(len(path), args.tau))
    backend = estimators.PrefixNNBackend(args.backend)
    profile = estimators.prefix_min_indexed(path, gauge, args.tau, exceptions, backend)
    report = {
        "n": len(path),
        "tau": args.tau,
        "gauge": args.gauge,
        "backend": args.backend,
        "exceptions": list(profile.exceptions),
        "distance_evaluations": backend.distance_evaluations,
    }
    try:
        report["g"] = estimators.missing_mass_G(profile)
    except estimators.InfiniteGaugeError as err:
        report["g"] = None
        report["g_note"] = str(err)
    if args.t is not None:
        report["t"] = args.t
        report["g_t"] = estimators.missing_mass_Gt(profile, args.t)
        if gauge.kind == "lipschitz" and exceptions is None:
            # estimators.good_turing's isolation fraction, on the chosen backend
            loo = estimators.leave_one_out_min(path, gauge, backend)
            report["good_turing"] = estimators._exceedance_share(loo, args.t)
        else:
            report["good_turing"] = None
    if args.dump_profile:
        pathio.write_table(args.dump_profile, ("entry", "position", "min"),
                           ((j, args.tau + j, m) for j, m in enumerate(profile.mins.tolist())))
    _write_json(report, args.out)
    return 0


def _mixing_from_args(args) -> bounds.MixingProfile:
    if args.process:
        return bounds.mixing_bounds(parse_process(args.process), args.tau)
    return bounds.MixingProfile(tau=args.tau, phi_tau=args.phi_tau)


def _cmd_bound(args) -> int:
    mixing = _mixing_from_args(args)
    if args.kind == "excess-loss":
        if args.gt is None:
            raise ValueError("excess-loss bound needs --gt")
        rep = bounds.excess_loss_probability_bound(args.gt, mixing, args.n, args.delta, t=args.t)
    elif args.kind == "risk":
        if args.g is None:
            raise ValueError("risk bound needs --g")
        cb = bounds.ClassBounds(sup_f=args.sup_f, sup_g=args.sup_g)
        rep = bounds.risk_bound(args.g, cb, mixing, args.n, args.delta, variant=args.variant)
    else:
        if args.g is None:
            raise ValueError("risk-exceptions bound needs --g")
        cb = bounds.ClassBounds(sup_f=args.sup_f, sup_g=args.sup_g)
        rep = bounds.risk_bound_with_exceptions(args.g, cb, mixing, args.n, args.delta,
                                                args.alpha)
    payload = {
        "kind": rep.kind,
        "terms": rep.terms(),
        "total": rep.total,
        "vacuous": rep.vacuous,
        "inputs": rep.inputs,
        "mixing_provenance": mixing.provenance,
    }
    _write_json(payload, args.out)
    return 0


# the settings each validate check echoes in its report's config, in order
_VALIDATE_CONFIG = {
    "martingale": ("chain", "n", "delta", "trials", "seed"),
    "coverage": ("process", "embedding", "L", "t", "tau", "n", "delta", "trials", "mc_fresh",
                 "seed"),
    "good-turing": ("symbols", "n", "t", "trials", "seed"),
}


def _cmd_validate(args) -> int:
    if args.check == "martingale":
        rep = verify.validate_martingale_tail(_parse_chain(args.chain), args.n, args.delta,
                                              args.trials, seed=args.seed)
    elif args.check == "coverage":
        rep = verify.validate_excess_loss_coverage(
            parse_process(args.process), parse_embedding(args.embedding), L=args.L, t=args.t,
            tau=args.tau, n=args.n, delta=args.delta, trials=args.trials,
            mc_fresh=args.mc_fresh, seed=args.seed, threads=args.threads,
        )
    else:
        rep = verify.validate_good_turing(args.symbols, args.n, args.t, args.trials,
                                          seed=args.seed)
    config = {name: getattr(args, name) for name in _VALIDATE_CONFIG[args.check]}
    _write_json({"check": args.check, "config": config, **asdict(rep)}, args.out)
    return 0


def _cmd_study(args) -> int:
    proc = parse_process(args.process)
    emb = parse_embedding(args.embedding)
    gauge = parse_gauge(args.gauge)
    sizes = [int(s) for s in args.sizes.split(",")]
    p_list = [float(p) for p in args.p_list.split(",")] if args.p_list else None
    rows = verify.decay_study(
        proc, emb, gauge, tau=args.tau, sizes=sizes, p_list=p_list,
        n_seeds=args.n_seeds, seed=args.seed,
    )
    out = FsPath(args.out)
    # the wide table's columns are the DecayRow fields, in order
    pathio.write_table(out, ("p", "n", "mean_G", "std_G", "n_seeds", "tau_mix", "tau_over_n"),
                       map(astuple, rows))
    series = [(row.p, name, math.log(row.n), math.log(value)) for row in rows
              for name, value in (("ln_G", row.mean_g), ("ln_tau_over_n", row.tau_over_n))
              if value is not None and value > 0]
    long_out = FsPath(args.long_out) if args.long_out else out.with_name(out.stem + "_long.csv")
    pathio.write_table(long_out, ("p", "series", "ln_n", "value"), series)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise, to leave through main's
    JSON error like every other failure; subcommand parsers share the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaugebounds",
        description="Gap estimators and generalization bound reports for stationary processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a process path and write it to a file")
    sim.add_argument("--process", required=True, help=parse_process.__doc__)
    sim.add_argument("--embedding", default="identity", help=parse_embedding.__doc__)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="a .bin name is binary, else CSV")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="compute gap estimators from a path file")
    est.add_argument("--in", dest="infile", required=True, help="a .bin name is binary, else CSV")
    est.add_argument("--gauge", required=True, help=parse_gauge.__doc__)
    est.add_argument("--tau", type=int, required=True)
    est.add_argument("--t", type=float, default=None, help="threshold for G_t and Good-Turing")
    est.add_argument("--exclude", default="", help="comma list of excluded 0-based positions")
    est.add_argument("--backend", choices=("naive", "indexed"), default="indexed",
                     help="naive runs the definitional scan: the same values, slower")
    est.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored: estimate runs in one thread")
    est.add_argument("--out", default=None, help="report JSON (stdout when omitted)")
    est.add_argument("--dump-profile", default=None, help="write the full profile as CSV")
    est.set_defaults(func=_cmd_estimate)

    bnd = sub.add_parser("bound", help="evaluate a bound report from estimator values")
    bnd.add_argument("--kind", choices=("excess-loss", "risk", "risk-exceptions"),
                     default="excess-loss")
    bnd.add_argument("--gt", type=float, default=None, help="threshold estimate G_t")
    bnd.add_argument("--g", type=float, default=None, help="mean estimate G")
    bnd.add_argument("--t", type=float, default=None,
                     help="level the G_t estimate was taken at (echoed in the report)")
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--tau", type=int, required=True)
    bnd.add_argument("--delta", type=float, required=True)
    bnd.add_argument("--phi-tau", type=float, default=0.0)
    bnd.add_argument("--process", default=None,
                     help="derive the dependence coefficient from this chain instead of --phi-tau")
    bnd.add_argument("--sup-f", type=float, default=1.0)
    bnd.add_argument("--sup-g", type=float, default=1.0)
    bnd.add_argument("--alpha", type=float, default=0.0)
    bnd.add_argument("--variant", choices=("martingale", "azuma"), default="martingale")
    bnd.add_argument("--out", default=None)
    bnd.set_defaults(func=_cmd_bound)

    val = sub.add_parser("validate", help="run a Monte Carlo validator")
    val.add_argument("--check", choices=tuple(_VALIDATE_CONFIG), required=True)
    val.add_argument("--chain", default="iid:q=0.3", help=_parse_chain.__doc__)
    val.add_argument("--process", default="iid:space=circle")
    val.add_argument("--embedding", default="identity")
    val.add_argument("--L", type=float, default=1.0)
    val.add_argument("--t", type=float, default=0.1)
    val.add_argument("--tau", type=int, default=1)
    val.add_argument("--n", type=int, default=200)
    val.add_argument("--delta", type=float, default=0.05)
    val.add_argument("--trials", type=int, default=1000)
    val.add_argument("--mc-fresh", type=int, default=2000)
    val.add_argument("--symbols", type=int, default=20)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--threads", type=int, default=1)
    val.add_argument("--out", default=None)
    val.set_defaults(func=_cmd_validate)

    stu = sub.add_parser("study", help="decay study: G across sizes and reset probabilities")
    stu.add_argument("--process", required=True)
    stu.add_argument("--embedding", default="identity")
    stu.add_argument("--gauge", default="lipschitz:L=1")
    stu.add_argument("--tau", type=int, required=True)
    stu.add_argument("--sizes", required=True, help="comma list of sample sizes")
    stu.add_argument("--p-list", default=None, help="comma list of reset probabilities")
    stu.add_argument("--n-seeds", type=int, default=10)
    stu.add_argument("--seed", type=int, default=0)
    stu.add_argument("--backend", choices=("naive", "indexed"), default="indexed",
                     help="accepted and ignored: study runs the fast exact kernels")
    stu.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored: study runs in one thread")
    stu.add_argument("--out", required=True, help="wide table CSV")
    stu.add_argument("--long-out", default=None, help="plot-ready long CSV")
    stu.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except Exception as err:  # every failure leaves as the JSON error
        message = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(message) + "\n")
        return 2 if isinstance(err, argparse.ArgumentError) else 1


if __name__ == "__main__":
    sys.exit(main())
