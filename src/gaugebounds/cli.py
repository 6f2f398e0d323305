"""Command-line surface: simulate, estimate, bound, validate, study.

All randomness flows from a single --seed; subcommands expand it into
sub-stream seeds through numpy SeedSequence spawning, so a run is
reproducible from one integer.  Reports are JSON with a fixed field order
(plus a trailing generated_at timestamp); tables are CSV.  Any module error
exits nonzero after printing machine-readable error JSON to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path as FsPath

import numpy as np

from . import pathio
from .bounds import (
    ClassBounds,
    MixingProfile,
    excess_loss_probability_bound,
    risk_bound,
    risk_bound_with_exceptions,
)
from .estimators import (
    ExceptionSet,
    InfiniteGaugeError,
    PrefixNNBackend,
    leave_one_out_min,
    missing_mass_G,
    missing_mass_Gt,
    prefix_min_indexed,
)
from .geometry import GaugeSpec
from .processes import EmbeddingSpec, ProcessSpec, embed, mixing_bounds, simulate
from .verify import (
    IidBernoulli,
    MarkovModulatedBernoulli,
    decay_study,
    validate_excess_loss_coverage,
    validate_good_turing,
    validate_martingale_tail,
)

__all__ = ["main", "parse_process", "parse_gauge", "parse_embedding"]

logger = logging.getLogger(__name__)


class _SpecKeys(dict):
    """The key=value pairs of one spec; a missing required key names the spec."""

    def __init__(self, text: str, body: str):
        super().__init__()
        self.text = text
        if not body:
            return
        for item in body.split(","):
            if "=" not in item:
                raise ValueError(f"expected key=value, got {item!r}")
            key, value = item.split("=", 1)
            self[key.strip()] = value.strip()

    def __missing__(self, key):
        raise ValueError(f"spec {self.text!r} is missing the key {key!r}")


def _split_spec(text: str) -> tuple[str, dict]:
    name, _, body = text.partition(":")
    return name.strip().lower(), _SpecKeys(text, body)


def parse_process(text: str, seed: int = 0) -> ProcessSpec:
    """cycle:N=100,p=0.5 | circle:zeta=0.38,p=0.1 | torus:zeta1=..,zeta2=..,p=..
    | iid:space=circle[,N=..]  (zeta values default to the built-in irrationals)"""
    name, kv = _split_spec(text)
    if name == "cycle":
        return ProcessSpec.cycle_chain(int(kv["N"]), float(kv["p"]), seed=seed)
    if name == "circle":
        kwargs = {"p": float(kv.get("p", 0.0)), "seed": seed}
        if "zeta" in kv:
            kwargs["zeta"] = float(kv["zeta"])
        return ProcessSpec.circle_rotation(**kwargs)
    if name == "torus":
        kwargs = {"p": float(kv.get("p", 0.0)), "seed": seed}
        if "zeta1" in kv:
            kwargs["zeta1"] = float(kv["zeta1"])
        if "zeta2" in kv:
            kwargs["zeta2"] = float(kv["zeta2"])
        return ProcessSpec.torus_rotation(**kwargs)
    if name == "iid":
        n_states = int(kv["N"]) if "N" in kv else None
        return ProcessSpec.iid_uniform(kv["space"], n_states=n_states, seed=seed)
    raise ValueError(f"unknown process {name!r}")


def parse_gauge(text: str) -> GaugeSpec:
    """lipschitz:L=1[,metric=discrete] | discrete | smooth:gamma=..,lambda=..
    | regression:L=.. | hinge:L=.. | local-lipschitz:r0=.. | local-smooth:c=.."""
    name, kv = _split_spec(text)
    if name == "lipschitz":
        return GaugeSpec.lipschitz(float(kv["L"]), metric=kv.get("metric", "euclidean"))
    if name == "discrete":
        return GaugeSpec.discrete()
    if name == "smooth":
        return GaugeSpec.smooth(float(kv["gamma"]), float(kv["lambda"]))
    if name == "regression":
        return GaugeSpec.regression(float(kv["L"]))
    if name == "hinge":
        return GaugeSpec.hinge_classification(float(kv["L"]))
    if name in ("local-lipschitz", "local_lipschitz"):
        return GaugeSpec.local_lipschitz_truncated(float(kv["r0"]))
    if name in ("local-smooth", "local_smooth"):
        return GaugeSpec.local_smooth(float(kv["c"]))
    raise ValueError(f"unknown gauge {name!r}")


def parse_embedding(text: str) -> EmbeddingSpec:
    """identity | fourier:D=8 | raster[:scaling=true]"""
    name, kv = _split_spec(text)
    if name == "identity":
        return EmbeddingSpec.identity()
    if name == "fourier":
        return EmbeddingSpec.fourier(int(kv["D"]))
    if name == "raster":
        scaling = kv.get("scaling", "false").lower() in ("1", "true", "yes")
        return EmbeddingSpec.raster_rotation(with_scaling=scaling)
    raise ValueError(f"unknown embedding {name!r}")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_json(payload: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    # a NaN or infinity has no JSON token: fail rather than write one
    text = json.dumps(payload, indent=2, default=_json_default, allow_nan=False) + "\n"
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
    path = embed(emb, simulate(proc, args.n))
    pathio.write_path(path, args.out, args.format)
    return 0


def _cmd_estimate(args) -> int:
    gauge = parse_gauge(args.gauge)
    indices = tuple(int(i) for i in args.exclude.split(",")) if args.exclude else None
    path = pathio.read_path(args.infile, args.format)
    exceptions = None
    if indices is not None:
        exceptions = ExceptionSet(indices=indices, n_eff=len(path) - args.tau)
    backend = PrefixNNBackend(args.backend)
    profile = prefix_min_indexed(path, gauge, args.tau, exceptions, backend)
    report = {
        "n": len(path),
        "tau": args.tau,
        "gauge": args.gauge,
        "backend": args.backend,
        "exceptions": list(profile.exceptions),
        "distance_evaluations": backend.distance_evaluations,
    }
    try:
        report["g"] = missing_mass_G(profile)
    except InfiniteGaugeError as err:
        report["g"] = None
        report["g_note"] = str(err)
    if args.t is not None:
        report["t"] = args.t
        report["g_t"] = missing_mass_Gt(profile, args.t)
        if gauge.kind in ("lipschitz", "discrete") and exceptions is None:
            # estimators.good_turing's isolation fraction, on the chosen backend
            loo = leave_one_out_min(path, gauge, backend)
            report["good_turing"] = float(np.count_nonzero(loo > args.t)) / loo.size
        else:
            report["good_turing"] = None
    if args.dump_profile:
        with FsPath(args.dump_profile).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entry", "position", "min"])
            for j, v in enumerate(profile.mins):
                writer.writerow([j, args.tau + j, format(float(v), ".17g")])
    _write_json(report, args.out)
    return 0


def _mixing_from_args(args) -> MixingProfile:
    if args.process:
        return mixing_bounds(parse_process(args.process), args.tau)
    return MixingProfile(tau=args.tau, phi_tau=args.phi_tau)


def _cmd_bound(args) -> int:
    mixing = _mixing_from_args(args)
    if args.kind == "excess-loss":
        if args.gt is None:
            raise ValueError("excess-loss bound needs --gt")
        rep = excess_loss_probability_bound(args.gt, mixing, args.n, args.delta, t=args.t)
    elif args.kind == "risk":
        if args.g is None:
            raise ValueError("risk bound needs --g")
        cb = ClassBounds(sup_f=args.sup_f, sup_g=args.sup_g)
        rep = risk_bound(args.g, cb, mixing, args.n, args.delta, variant=args.variant)
    else:
        if args.g is None:
            raise ValueError("risk-exceptions bound needs --g")
        cb = ClassBounds(sup_f=args.sup_f, sup_g=args.sup_g)
        rep = risk_bound_with_exceptions(args.g, cb, mixing, args.n, args.delta, args.alpha)
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


def _cmd_validate(args) -> int:
    if args.check == "martingale":
        name, kv = _split_spec(args.chain)
        if name == "iid":
            chain = IidBernoulli(q=float(kv["q"]))
        elif name == "mmb":
            chain = MarkovModulatedBernoulli(
                stay0=float(kv["stay0"]), stay1=float(kv["stay1"]),
                q0=float(kv["q0"]), q1=float(kv["q1"]),
            )
        else:
            raise ValueError(f"unknown chain {name!r}")
        config = {"chain": args.chain, "n": args.n, "delta": args.delta,
                  "trials": args.trials, "seed": args.seed}
        rep = validate_martingale_tail(chain, args.n, args.delta, args.trials, seed=args.seed)
        payload = {"check": "martingale", "config": config, **asdict(rep)}
    elif args.check == "coverage":
        proc = parse_process(args.process)
        emb = parse_embedding(args.embedding)
        config = {"process": args.process, "embedding": args.embedding, "L": args.L,
                  "t": args.t, "tau": args.tau, "n": args.n, "delta": args.delta,
                  "trials": args.trials, "mc_fresh": args.mc_fresh, "seed": args.seed}
        rep = validate_excess_loss_coverage(
            proc, emb, L=args.L, t=args.t, tau=args.tau, n=args.n,
            delta=args.delta, trials=args.trials, mc_fresh=args.mc_fresh,
            seed=args.seed, threads=args.threads,
        )
        payload = {"check": "coverage", "config": config, **asdict(rep)}
    else:
        config = {"symbols": args.symbols, "n": args.n, "t": args.t,
                  "trials": args.trials, "seed": args.seed}
        rep = validate_good_turing(args.symbols, args.n, args.t, args.trials, seed=args.seed)
        payload = {"check": "good-turing", "config": config, **asdict(rep)}
    _write_json(payload, args.out)
    return 0


def _cmd_study(args) -> int:
    proc = parse_process(args.process)
    emb = parse_embedding(args.embedding)
    gauge = parse_gauge(args.gauge)
    sizes = [int(s) for s in args.sizes.split(",")]
    p_list = [float(p) for p in args.p_list.split(",")] if args.p_list else None
    rows = decay_study(
        proc, emb, gauge, tau=args.tau, sizes=sizes, p_list=p_list,
        n_seeds=args.n_seeds, seed=args.seed, backend=args.backend,
    )
    out = FsPath(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "n", "mean_G", "std_G", "n_seeds", "tau_mix", "tau_over_n"])
        for row in rows:
            writer.writerow([
                format(row.p, ".17g"), row.n,
                format(row.mean_g, ".17g"), format(row.std_g, ".17g"), row.n_seeds,
                "" if row.tau_mix is None else row.tau_mix,
                "" if row.tau_over_n is None else format(row.tau_over_n, ".17g"),
            ])
    long_out = FsPath(args.long_out) if args.long_out else out.with_name(out.stem + "_long.csv")
    with long_out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "series", "ln_n", "value"])
        for row in rows:
            ln_n = format(math.log(row.n), ".17g")
            if row.mean_g > 0:
                writer.writerow([format(row.p, ".17g"), "ln_G", ln_n,
                                 format(math.log(row.mean_g), ".17g")])
            if row.tau_over_n is not None and row.tau_over_n > 0:
                writer.writerow([format(row.p, ".17g"), "ln_tau_over_n", ln_n,
                                 format(math.log(row.tau_over_n), ".17g")])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugebounds",
        description="Gap estimators and generalization bound reports for stationary processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a process path and write it to a file")
    sim.add_argument("--process", required=True, help=parse_process.__doc__)
    sim.add_argument("--embedding", default="identity", help=parse_embedding.__doc__)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--format", choices=("csv", "bin"), default="csv")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="compute gap estimators from a path file")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--format", choices=("csv", "bin"), default=None)
    est.add_argument("--gauge", required=True, help=parse_gauge.__doc__)
    est.add_argument("--tau", type=int, required=True)
    est.add_argument("--t", type=float, default=None, help="threshold for G_t and Good-Turing")
    est.add_argument("--exclude", default="", help="comma list of excluded 0-based positions")
    est.add_argument("--backend", choices=("naive", "indexed"), default="naive")
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
    val.add_argument("--check", choices=("martingale", "coverage", "good-turing"), required=True)
    val.add_argument("--chain", default="iid:q=0.3",
                     help="martingale: iid:q=.. | mmb:stay0=..,stay1=..,q0=..,q1=..")
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
    stu.add_argument("--backend", choices=("naive", "indexed"), default="indexed")
    stu.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored: study runs in one thread")
    stu.add_argument("--out", required=True, help="wide table CSV")
    stu.add_argument("--long-out", default=None, help="plot-ready long CSV")
    stu.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # every failure leaves as the JSON error, exit 1
        logger.debug("command failed", exc_info=True)
        message = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(message) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
