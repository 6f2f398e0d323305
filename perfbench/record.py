"""Run every workload, check it, and record one point of the trajectory.

Run from the repository root:

    python3 perfbench/record.py --label 0-seed --seed 1

For each workload it makes one untraced run and two traced runs with the same
seed, each through run.py exactly as BENCHMARK.json's command runs it, for
BENCHMARK.json's run_seconds.  It
prints every end-to-end metric by name with its unit, checks that the exact counts
(.calls, .pairs, .distance_evaluations and the other counts) repeat between
the two traced runs, and writes perfbench/results/BENCH_<label>.json with the
environment record, the per-layer metrics and each layer's share of the
traced job time.  It exits 1 when a job fails or a count drifts.
"""

import argparse
import json
import subprocess
import sys

import run

COUNT_SUFFIXES = (".calls", ".pairs", ".distance_evaluations", ".points", ".bytes",
                  ".invocations")


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
    tag = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((run.RUNS / f"{tag}.json").read_text())


def count_drift(first, second):
    """Count metrics that differ between same-seed traced runs, job by job."""
    drift = []
    for k, (a, b) in enumerate(zip(first["per_job_layers"], second["per_job_layers"])):
        for name, value in a.items():
            if name.endswith(COUNT_SUFFIXES) and b.get(name) != value:
                drift.append(f"job {k} {name}: {value} then {b.get(name)}")
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"label": args.label, "seed": args.seed, "seconds": seconds,
              "environment": run.environment(), "workloads": {}}
    ok = True
    for workload in run.WORKLOADS:
        plain = one_run(workload, args.seed, seconds, 0)
        traced = [one_run(workload, args.seed, seconds, 1) for _ in range(2)]
        drift = count_drift(*traced)
        layers = traced[0]["metrics"]
        job_s = layers["trace.job_s"]["value"]
        failed = plain["failed"] + sum(t["failed"] for t in traced)
        attempted = len(plain["jobs"]) + sum(len(t["jobs"]) for t in traced)
        record["workloads"][workload] = {
            "dim": plain["dim"], "job_seeds": plain["job_seeds"],
            "end_to_end": plain["metrics"], "jobs": plain["jobs"],
            "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
            "per_layer": layers, "self_time_shares": run.self_time_shares(layers), "count_drift": drift,
        }
        ok = ok and failed == 0 and not drift
        print(f"{workload} (D = {plain['dim']}): fail_frac = {failed / attempted:g} "
              f"({failed} of {attempted} jobs), count drift: {len(drift)}")
        for name, m in plain["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(f"  tracing overhead = {layers['trace.overhead_s']['value']:.4g} s "
              f"on a traced job_s of {job_s:.4g} s")
        for line in drift:
            print(f"  COUNT DRIFT (benchmark defect): {line}")

    out = run.HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
