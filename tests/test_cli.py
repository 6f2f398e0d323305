import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gaugebounds
from gaugebounds import GaugeSpec, ProcessSpec, missing_mass_G, prefix_min_profile, simulate
from gaugebounds import cli, pathio
from gaugebounds.cli import main, parse_embedding, parse_gauge, parse_process


def run(args):
    return main(args)


def load_json(path):
    return json.loads(path.read_text())


def strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"generated_at".*$', "", text, flags=re.M)


class TestSpecParsers:
    def test_process_strings(self):
        spec = parse_process("cycle:N=100,p=0.5", seed=3)
        assert spec.kind == "cycle" and spec.n_states == 100 and spec.reset_p == 0.5
        assert parse_process("circle:zeta=0.25,p=0.1").zeta == 0.25
        torus = parse_process("torus:p=0.2")
        assert torus.zeta1 is not None and torus.zeta2 is not None
        assert parse_process("iid:space=circle").kind == "iid"

    def test_gauge_strings(self):
        assert parse_gauge("lipschitz:L=2").L == 2.0
        assert parse_gauge("lipschitz:L=1,metric=discrete").metric == "discrete"
        assert parse_gauge("discrete") == GaugeSpec.lipschitz(1.0, metric="discrete")
        assert parse_gauge("smooth:gamma=1.5,lambda=0.5").gamma == 1.5
        assert parse_gauge("local-smooth:c=2").c == 2.0
        assert parse_gauge("hinge:L=3").kind == "hinge"

    def test_embedding_strings(self):
        assert parse_embedding("identity").kind == "identity"
        assert parse_embedding("fourier:D=8").dim == 8
        assert parse_embedding("raster:scaling=true").with_scaling
        for value in ("1", "TRUE", "Yes"):
            assert parse_embedding(f"raster:scaling={value}").with_scaling
        for value in ("0", "False", "NO"):
            assert not parse_embedding(f"raster:scaling={value}").with_scaling
        assert not parse_embedding("raster").with_scaling

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            parse_process("brownian:p=1")
        with pytest.raises(ValueError):
            parse_gauge("tv")


class TestSimulateEstimateRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_file_route_matches_in_process(self, tmp_path, fmt):
        pfile = tmp_path / f"path.{fmt}"
        rfile = tmp_path / "report.json"
        assert run(["simulate", "--process", "circle:zeta=0.3,p=0.2", "--n", "64",
                    "--seed", "5", "--out", str(pfile)]) == 0
        assert run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1",
                    "--tau", "2", "--out", str(rfile)]) == 0
        report = load_json(rfile)
        spec = ProcessSpec.circle_rotation(zeta=0.3, p=0.2, seed=5)
        expected = missing_mass_G(prefix_min_profile(simulate(spec, 64),
                                                     GaugeSpec.lipschitz(1.0), 2))
        assert report["g"] == expected    # bit-exact round trip
        assert report["n"] == 64 and report["tau"] == 2

    def test_bin_name_writes_the_binary_format(self, tmp_path):
        pfile = tmp_path / "x.bin"
        assert run(["simulate", "--process", "circle:p=0.2", "--n", "8",
                    "--out", str(pfile)]) == 0
        blob = pfile.read_bytes()
        assert blob[:4] == b"GBc1" and len(blob) == 16 + 8 * 8

    def test_four_row_example(self, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n0.5\n0.25\n")
        rfile = tmp_path / "r.json"
        assert run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1",
                    "--tau", "1", "--t", "0.4", "--out", str(rfile)]) == 0
        report = load_json(rfile)
        assert report["g"] == pytest.approx(7.0 / 12.0, rel=1e-15)
        assert report["g_t"] == pytest.approx(2.0 / 3.0)
        assert report["good_turing"] is not None

    def test_profile_dump(self, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n0.5\n0.25\n")
        dump = tmp_path / "mins.csv"
        assert run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1",
                    "--tau", "1", "--dump-profile", str(dump),
                    "--out", str(tmp_path / "r.json")]) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "entry,position,min"
        assert len(lines) == 4

    def test_exclusions_flag(self, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n0.9\n")
        rfile = tmp_path / "r.json"
        assert run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1",
                    "--tau", "1", "--exclude", "1", "--out", str(rfile)]) == 0
        assert load_json(rfile)["g"] == pytest.approx((1.0 + 0.9) / 2.0)

    def test_infinite_gauge_reports_null_g(self, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0,label\n0,1\n1,-1\n0.5,-1\n")
        rfile = tmp_path / "r.json"
        assert run(["estimate", "--in", str(pfile), "--gauge", "hinge:L=1",
                    "--tau", "1", "--t", "0.4", "--out", str(rfile)]) == 0
        report = load_json(rfile)
        assert report["g"] is None and "g_note" in report
        assert report["g_t"] == pytest.approx(1.0)


class TestBoundCommand:
    def test_frozen_threshold_report(self, tmp_path):
        rfile = tmp_path / "b.json"
        assert run(["bound", "--kind", "excess-loss", "--gt", "0", "--n", "101",
                    "--tau", "1", "--delta", "0.05", "--out", str(rfile)]) == 0
        report = load_json(rfile)
        assert report["total"] == pytest.approx(0.08143244602130115, rel=1e-12)
        assert report["terms"]["estimator_term"] == 0.0
        assert report["vacuous"] is False

    def test_risk_with_chain_derived_mixing(self, tmp_path):
        rfile = tmp_path / "b.json"
        assert run(["bound", "--kind", "risk", "--g", "0.05", "--n", "110", "--tau", "10",
                    "--delta", "0.05", "--process", "cycle:N=10,p=0.1",
                    "--sup-f", "1", "--sup-g", "1", "--out", str(rfile)]) == 0
        report = load_json(rfile)
        assert report["mixing_provenance"] == "chain-derived"
        assert report["terms"]["mixing_term"] == pytest.approx(0.9 ** 10, rel=1e-12)

    def test_exceptions_kind(self, tmp_path):
        rfile = tmp_path / "b.json"
        assert run(["bound", "--kind", "risk-exceptions", "--g", "0", "--n", "101",
                    "--tau", "1", "--delta", "0.05", "--alpha", "0.1",
                    "--out", str(rfile)]) == 0
        assert load_json(rfile)["total"] == pytest.approx(0.9650995853327102, rel=1e-12)

    def test_missing_estimate_is_an_error(self, capsys):
        assert run(["bound", "--kind", "risk", "--n", "101", "--tau", "1",
                    "--delta", "0.05"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"


class TestValidateCommand:
    def test_martingale_report(self, tmp_path):
        rfile = tmp_path / "v.json"
        assert run(["validate", "--check", "martingale", "--chain", "iid:q=0.3",
                    "--n", "100", "--delta", "0.1", "--trials", "300",
                    "--seed", "2", "--out", str(rfile)]) == 0
        report = load_json(rfile)
        assert report["check"] == "martingale"
        assert report["passed"] is True
        assert report["violations"] <= report["trials"]

    def test_good_turing_report(self, tmp_path):
        rfile = tmp_path / "v.json"
        assert run(["validate", "--check", "good-turing", "--symbols", "12",
                    "--n", "60", "--t", "0.5", "--trials", "200",
                    "--seed", "3", "--out", str(rfile)]) == 0
        report = load_json(rfile)
        assert report["rms"] <= report["bound"]

    def test_coverage_report(self, tmp_path):
        rfile = tmp_path / "v.json"
        assert run(["validate", "--check", "coverage", "--process", "iid:space=circle",
                    "--L", "1", "--t", "0.1", "--tau", "1", "--n", "48",
                    "--delta", "0.1", "--trials", "30", "--mc-fresh", "200",
                    "--seed", "4", "--out", str(rfile)]) == 0
        assert load_json(rfile)["passed"] is True


class TestStudyCommand:
    def test_pure_cycle_study_is_identically_zero(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["study", "--process", "cycle:N=100,p=0", "--gauge", "discrete",
                    "--tau", "100", "--sizes", "128,256,512,1024", "--p-list", "0",
                    "--n-seeds", "2", "--seed", "5", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "p,n,mean_G,std_G,n_seeds,tau_mix,tau_over_n"
        for line in rows[1:]:
            fields = line.split(",")
            assert float(fields[2]) == 0.0

    def test_long_format_axes(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["study", "--process", "circle:p=0.5", "--gauge", "lipschitz:L=1",
                    "--tau", "1", "--sizes", "16,64", "--p-list", "0.5,1.0",
                    "--n-seeds", "2", "--seed", "6", "--out", str(out)]) == 0
        long_file = tmp_path / "t_long.csv"
        lines = long_file.read_text().splitlines()
        assert lines[0] == "p,series,ln_n,value"
        series = {line.split(",")[1] for line in lines[1:]}
        assert series == {"ln_G", "ln_tau_over_n"}
        ln_ns = {line.split(",")[2] for line in lines[1:]}
        assert {format(math.log(16), ".17g"), format(math.log(64), ".17g")} == ln_ns


class TestDeterminismAndErrors:
    def test_same_seed_same_bytes_modulo_timestamp(self, tmp_path):
        args = ["validate", "--check", "martingale", "--chain", "mmb:stay0=0.9,stay1=0.8,q0=0.1,q1=0.5",
                "--n", "80", "--delta", "0.1", "--trials", "200", "--seed", "7"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(f1)]) == 0
        assert run(args + ["--out", str(f2)]) == 0
        assert strip_timestamp(f1.read_text()) == strip_timestamp(f2.read_text())

    def test_threads_do_not_change_output(self, tmp_path):
        base = ["validate", "--check", "coverage", "--process", "iid:space=circle",
                "--t", "0.05", "--n", "32", "--delta", "0.1", "--trials", "20",
                "--mc-fresh", "100", "--seed", "8"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(base + ["--threads", "1", "--out", str(f1)]) == 0
        assert run(base + ["--threads", "4", "--out", str(f2)]) == 0
        assert strip_timestamp(f1.read_text()) == strip_timestamp(f2.read_text())

    def test_study_outputs_are_byte_identical(self, tmp_path):
        args = ["study", "--process", "circle:p=0.5", "--gauge", "lipschitz:L=1",
                "--tau", "1", "--sizes", "16,64", "--p-list", "0.5",
                "--n-seeds", "3", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_long.csv").read_bytes() == (tmp_path / "b_long.csv").read_bytes()

    def test_module_error_yields_json_and_nonzero_exit(self, capsys, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n")
        code = run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=-1", "--tau", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert "positive" in err["error"]["message"]

    def test_missing_input_file(self, capsys):
        assert run(["estimate", "--in", "/nonexistent/x.csv",
                    "--gauge", "lipschitz:L=1", "--tau", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] in ("FileNotFoundError", "OSError")

    def test_precondition_checked_before_compute(self, capsys, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n")
        assert run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1",
                    "--tau", "5"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "tau" in err["error"]["message"]


class TestRejectedInputs:
    def error_of(self, capsys, args):
        assert run(args) == 1
        return json.loads(capsys.readouterr().err)["error"]

    def test_good_turing_with_zero_trials(self, capsys, tmp_path):
        err = self.error_of(capsys, ["validate", "--check", "good-turing", "--trials", "0",
                                     "--out", str(tmp_path / "v.json")])
        assert err["type"] == "ValueError" and "trials" in err["message"]
        assert not (tmp_path / "v.json").exists()

    def test_coverage_with_zero_trials(self, capsys, tmp_path):
        err = self.error_of(capsys, ["validate", "--check", "coverage", "--trials", "0",
                                     "--n", "16", "--out", str(tmp_path / "v.json")])
        assert err["type"] == "ValueError" and "trials" in err["message"]

    def test_study_with_zero_seeds(self, capsys, tmp_path):
        err = self.error_of(capsys, ["study", "--process", "circle:p=0.5", "--tau", "1",
                                     "--sizes", "16", "--n-seeds", "0",
                                     "--out", str(tmp_path / "t.csv")])
        assert err["type"] == "ValueError" and "n_seeds" in err["message"]

    @pytest.mark.parametrize("flag, values, named", [
        ("--sizes", "8,8,16", "sizes repeats [8]"),
        ("--p-list", "0.5,0.25,0.5", "p_list repeats [0.5]"),
    ])
    def test_study_with_repeated_entries(self, capsys, tmp_path, flag, values, named):
        args = {"--sizes": "8,16", "--p-list": "0.5", flag: values}
        err = self.error_of(capsys, ["study", "--process", "circle:p=0.5", "--tau", "1",
                                     "--n-seeds", "2", "--out", str(tmp_path / "t.csv"),
                                     *(x for kv in args.items() for x in kv)])
        assert err["type"] == "ValueError" and named in err["message"]
        assert not (tmp_path / "t.csv").exists()

    def test_study_without_a_usable_size(self, capsys, tmp_path):
        err = self.error_of(capsys, ["study", "--process", "circle:p=0.5", "--tau", "3",
                                     "--sizes", "1,2", "--out", str(tmp_path / "s.csv")])
        assert err["type"] == "ValueError"
        assert "[1, 2]" in err["message"] and "tau=3" in err["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_coverage_with_too_few_threads(self, capsys, tmp_path, threads):
        err = self.error_of(capsys, ["validate", "--check", "coverage", "--threads", threads,
                                     "--n", "16", "--trials", "2",
                                     "--out", str(tmp_path / "v.json")])
        assert err == {"type": "ValueError",
                       "message": f"threads must be at least 1, got {threads}"}
        assert not (tmp_path / "v.json").exists()

    def test_any_exception_becomes_the_json_error(self, capsys, monkeypatch):
        def broken(_args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "_cmd_bound", broken)
        err = self.error_of(capsys, ["bound", "--n", "10", "--tau", "1", "--delta", "0.1"])
        assert err == {"type": "ZeroDivisionError", "message": "division by zero"}


class TestMalformedCommandLine:
    """A command line argparse rejects leaves as the same JSON error as every
    other failure, with exit status 2."""

    ESTIMATE = ["estimate", "--in", "x.csv", "--gauge", "lipschitz:L=1", "--tau", "1"]

    @pytest.mark.parametrize("args, message", [
        (ESTIMATE[:-1] + ["abc"], "argument --tau: invalid int value: 'abc'"),
        (ESTIMATE + ["--backend", "fast"], "argument --backend: invalid choice: 'fast'"),
        (ESTIMATE + ["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (ESTIMATE[:1] + ESTIMATE[3:], "the following arguments are required: --in"),
        ([], "the following arguments are required: command"),
    ], ids=["bad-int", "bad-choice", "unknown-flag", "missing-flag", "missing-subcommand"])
    def test_exits_2_with_one_json_line(self, capsys, args, message):
        assert run(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        error = json.loads(err)["error"]
        assert error["type"] == "ArgumentError" and error["message"].startswith(message)

    @pytest.mark.parametrize("args", [["--help"], ["estimate", "--help"]])
    def test_help_exits_0(self, capsys, args):
        with pytest.raises(SystemExit) as exit_:
            run(args)
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: gaugebounds") and err == ""


def test_indexed_good_turing_matches_naive(tmp_path):
    pfile = tmp_path / "p.csv"
    assert run(["simulate", "--process", "torus:p=0.1", "--embedding", "raster:scaling=true",
                "--n", "200", "--seed", "3", "--out", str(pfile)]) == 0
    reports = {}
    for backend in ("naive", "indexed"):
        rfile = tmp_path / f"{backend}.json"
        assert run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1", "--tau", "2",
                    "--t", "0.3", "--backend", backend, "--out", str(rfile)]) == 0
        reports[backend] = load_json(rfile)
    for key in ("g", "g_t", "good_turing"):
        assert reports["naive"][key] == reports["indexed"][key]
    assert 0.0 < reports["indexed"]["good_turing"] < 1.0


def test_indexed_regression_report_matches_naive(tmp_path):
    # the indexed backend serves the regression gauge with the naive kernel
    pfile = tmp_path / "p.csv"
    pfile.write_text("c0,c1,target\n" + "".join(
        f"{(7 * k % 11) / 11!r},{(5 * k % 13) / 13!r},{(3 * k % 7) / 7 - 0.5!r}\n"
        for k in range(40)))
    reports, profiles = {}, {}
    for backend in ("naive", "indexed"):
        rfile, dump = tmp_path / f"{backend}.json", tmp_path / f"{backend}.csv"
        assert run(["estimate", "--in", str(pfile), "--gauge", "regression:L=1", "--tau", "2",
                    "--t", "0.2", "--backend", backend, "--out", str(rfile),
                    "--dump-profile", str(dump)]) == 0
        reports[backend] = load_json(rfile)
        profiles[backend] = dump.read_bytes()
        del reports[backend]["generated_at"]
    assert reports["indexed"].pop("backend") == "indexed"
    assert reports["naive"].pop("backend") == "naive"
    assert reports["indexed"] == reports["naive"]
    assert reports["naive"]["distance_evaluations"] == 38 * 39 // 2
    assert profiles["indexed"] == profiles["naive"]


def test_estimate_defaults_to_the_indexed_backend(tmp_path):
    pfile = tmp_path / "p.csv"
    assert run(["simulate", "--process", "torus:p=0.1", "--n", "120", "--seed", "2",
                "--out", str(pfile)]) == 0
    reports = []
    for extra in ([], ["--backend", "indexed"]):
        rfile = tmp_path / "r.json"
        assert run(["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1", "--tau", "2",
                    "--t", "0.1", *extra, "--out", str(rfile)]) == 0
        reports.append(strip_timestamp(rfile.read_text()))
    assert reports[0] == reports[1]
    assert load_json(rfile)["backend"] == "indexed"


def test_study_backend_is_accepted_and_ignored(tmp_path, monkeypatch):
    # both values run the fast kernels, so the tables are the same bytes
    from gaugebounds import geometry

    def no_scan(*_args):
        raise AssertionError("study reached the naive scan")

    monkeypatch.setattr(geometry, "_naive_mins", no_scan)
    args = ["study", "--process", "circle:p=0.5", "--embedding", "fourier:D=4", "--tau", "1",
            "--sizes", "16,64", "--p-list", "0.5,1", "--n-seeds", "2", "--seed", "3"]
    for backend in ("naive", "indexed"):
        assert run([*args, "--backend", backend, "--out", str(tmp_path / f"{backend}.csv")]) == 0
    for name in ("{}.csv", "{}_long.csv"):
        naive = (tmp_path / name.format("naive")).read_bytes()
        assert naive == (tmp_path / name.format("indexed")).read_bytes()


def test_profile_dump_bytes(tmp_path):
    # hinge pairs across labels are +inf, L = 1e-300 makes the 1e-20 gap subnormal
    pfile = tmp_path / "p.csv"
    pfile.write_text("c0,label\n0,1\n0.1,-1\n1e-20,1\n0.3333333333333333,1\n0.7,-1\n")
    dump = tmp_path / "mins.csv"
    assert run(["estimate", "--in", str(pfile), "--gauge", "hinge:L=1e-300", "--tau", "1",
                "--dump-profile", str(dump), "--out", str(tmp_path / "r.json")]) == 0
    mins = prefix_min_profile(pathio.read_path(pfile), GaugeSpec.hinge_classification(1e-300),
                              1).mins
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["entry", "position", "min"])
    for j, v in enumerate(mins):
        writer.writerow([j, 1 + j, format(float(v), ".17g")])
    assert dump.read_bytes() == ref.getvalue().encode()
    assert [line.split(",")[2] for line in dump.read_text().splitlines()[1:]] == \
        ["inf", "9.9998886718268301e-321", "3.3333333333333334e-301", "6e-301"]


def test_table_writer_bytes_are_csv_writers(tmp_path):
    # every CLI table goes through pathio.write_table: its bytes are what
    # csv.writer writes with each real formatted by %.17g.  A study of a chain
    # without resets (p = 0) has no mixing time, so its rows leave tau_mix and
    # tau_over_n empty; the long table names its series
    wide = [(0.0, 128, 0.0, 0.0, 2, None, None),
            (0.1, 4096, 1e-300, 5e-324, 1, 22, 22 / 4096),
            (np.float64(0.5), np.int64(7), math.inf, -0.0, 3, 1, 1 / 7)]
    long = [(0.1, "ln_G", math.log(16), math.log(0.25)),
            (0.1, "ln_tau_over_n", math.log(16), math.log(22 / 16))]
    for rows, header in ((wide, ("p", "n", "mean_G", "std_G", "n_seeds", "tau_mix", "tau_over_n")),
                         (long, ("p", "series", "ln_n", "value"))):
        out = tmp_path / "table.csv"
        pathio.write_table(out, header, iter(rows))
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v if isinstance(v, (str, int, np.integer))
                             else format(float(v), ".17g") for v in row])
        assert out.read_bytes() == ref.getvalue().encode()
    assert out.read_text().splitlines()[1] == "0.10000000000000001,ln_G,2.7725887222397811," \
        "-1.3862943611198906"


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(gaugebounds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [
        ["--check", "coverage", "--n", "16", "--trials", "3", "--mc-fresh", "50"],
        ["--check", "good-turing", "--n", "20", "--trials", "3"],
        ["--check", "martingale", "--n", "20", "--trials", "100"],
    ]
    code = ("import json, sys, gaugebounds.cli\n"
            "print('scipy' in sys.modules)\n"
            "for i, args in enumerate(json.loads(sys.argv[1])):\n"
            "    out = f'{sys.argv[2]}/v{i}.json'\n"
            "    assert gaugebounds.cli.main(['validate', *args, '--out', out]) == 0\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]
    assert [load_json(tmp_path / f"v{i}.json")["passed"] for i in range(len(runs))] == [True] * 3


@pytest.mark.parametrize("backend", ["naive", "indexed"])
@pytest.mark.parametrize("gauge, rows", [
    # same-label pairs 1e300 or more apart: the kernel overflows to +inf
    ("hinge:L=1e-300", "c0,c1,label\n1e300,-1e300,1\n-1e300,1e300,1\n1e300,1e300,-1\n"
                       "-1e300,-1e300,-1\n0,0,1\n1e-10,0,1\n1e300,-1e300,-1\n"),
    # distances near 1e100: their square times 1e300 overflows to +inf
    ("smooth:gamma=1e300,lambda=1", "c0\n0\n1e-10\n1e100\n-2e100\n1\n3e100\n"),
], ids=["hinge", "smooth"])
def test_overflow_to_inf_is_silent(tmp_path, backend, gauge, rows):
    pfile = tmp_path / "p.csv"
    pfile.write_text(rows)
    args = ["estimate", "--in", str(pfile), "--gauge", gauge, "--tau", "1", "--t", "0.5",
            "--backend", backend]
    assert run([*args, "--out", str(tmp_path / "a.json"),
                "--dump-profile", str(tmp_path / "a.csv")]) == 0
    src = os.path.dirname(os.path.dirname(gaugebounds.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "gaugebounds.cli",
                           *args, "--out", str(tmp_path / "b.json"),
                           "--dump-profile", str(tmp_path / "b.csv")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    reports = [load_json(tmp_path / f"{side}.json") for side in "ab"]
    for report in reports:
        del report["generated_at"]
    assert reports[0] == reports[1]
    profile = (tmp_path / "a.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == profile
    mins = [line.split(b",")[2] for line in profile.splitlines()[1:]]
    assert b"inf" in mins and any(m != b"inf" for m in mins)


class TestMalformedSpecs:
    """A malformed --process/--gauge/--embedding spec leaves every subcommand
    as the JSON error with exit 1, before any output is written."""

    def error_of(self, capsys, args):
        assert run(args) == 1
        return json.loads(capsys.readouterr().err)["error"]

    def test_simulate(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        err = self.error_of(capsys, ["simulate", "--process", "torus:p", "--n", "8",
                                     "--out", str(out)])
        assert err == {"type": "ValueError", "message": "expected key=value, got 'p'"}
        assert not out.exists()

    def test_estimate(self, capsys, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n0.5\n")
        out = tmp_path / "r.json"
        err = self.error_of(capsys, ["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=",
                                     "--tau", "1", "--out", str(out)])
        assert err["type"] == "ValueError" and "float" in err["message"]
        assert not out.exists()

    def test_bound(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        err = self.error_of(capsys, ["bound", "--kind", "risk", "--g", "0.1", "--n", "10",
                                     "--tau", "1", "--delta", "0.1", "--process", "torus:p",
                                     "--out", str(out)])
        assert err == {"type": "ValueError", "message": "expected key=value, got 'p'"}
        assert not out.exists()

    def test_validate(self, capsys, tmp_path):
        out = tmp_path / "v.json"
        err = self.error_of(capsys, ["validate", "--check", "coverage", "--embedding",
                                     "raster:scaling", "--n", "16", "--trials", "2",
                                     "--out", str(out)])
        assert err == {"type": "ValueError", "message": "expected key=value, got 'scaling'"}
        assert not out.exists()

    @pytest.mark.parametrize("value", ["ture", "", "2", "on"])
    def test_scaling_takes_only_an_on_off_word(self, capsys, tmp_path, value):
        out = tmp_path / "p.csv"
        err = self.error_of(capsys, ["simulate", "--process", "torus:p=0.5", "--embedding",
                                     f"raster:scaling={value}", "--n", "8", "--out", str(out)])
        assert err == {"type": "ValueError",
                       "message": f"scaling must be 1/0/true/false/yes/no, got {value!r}"}
        assert not out.exists()

    def test_study(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        err = self.error_of(capsys, ["study", "--process", "circle:p=0.5", "--gauge",
                                     "lipschitz:L=", "--tau", "1", "--sizes", "16",
                                     "--out", str(out)])
        assert err["type"] == "ValueError" and "float" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("args, spec, key", [
        (["study", "--process", "cycle:p=0.5", "--tau", "1", "--sizes", "16"], "cycle:p=0.5", "N"),
        (["study", "--process", "circle:p=0.5", "--gauge", "smooth:gamma=1", "--tau", "1",
          "--sizes", "16"], "smooth:gamma=1", "lambda"),
        (["simulate", "--process", "circle:p=0.5", "--embedding", "fourier", "--n", "8"],
         "fourier", "D"),
    ])
    def test_missing_key_names_the_spec(self, capsys, tmp_path, args, spec, key):
        out = tmp_path / "out.csv"
        err = self.error_of(capsys, args + ["--out", str(out)])
        assert err == {"type": "ValueError",
                       "message": f"spec {spec!r} is missing the key {key!r}"}
        assert not out.exists()

    @pytest.mark.parametrize("spec, name", [
        ("lipschitz:L=inf", "L"),
        ("lipschitz:L=nan,metric=discrete", "L"),
        ("regression:L=nan", "L"),
        ("hinge:L=inf", "L"),
        ("smooth:gamma=nan,lambda=1", "gamma"),
        ("smooth:gamma=1,lambda=inf", "lam"),
        ("local-lipschitz:r0=nan", "r0"),
        ("local-smooth:c=inf", "c"),
    ])
    def test_non_finite_gauge_parameter(self, capsys, tmp_path, spec, name):
        # a NaN parameter would make every minimum +inf and the report read g_t = 1.0
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n0.5\n")
        out = tmp_path / "r.json"
        err = self.error_of(capsys, ["estimate", "--in", str(pfile), "--gauge", spec,
                                     "--tau", "1", "--t", "0.1", "--out", str(out)])
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"{name} must be finite and positive, got ")
        assert not out.exists()

    @pytest.mark.parametrize("args, spec, message", [
        (["simulate", "--process", "circle:p=0.1,zeta1=0.3", "--n", "8"],
         "circle:p=0.1,zeta1=0.3", "has the unknown key 'zeta1'"),
        (["simulate", "--process", "cycle:N=5,p=0.1,p=0.2", "--n", "8"],
         "cycle:N=5,p=0.1,p=0.2", "repeats the key 'p'"),
        (["study", "--process", "circle:p=0.5", "--gauge", "lipschitz:L=1,l=3", "--tau", "1",
          "--sizes", "16"], "lipschitz:L=1,l=3", "has the unknown key 'l'"),
        (["study", "--process", "circle:p=0.5", "--gauge", "lipschitz:L=1,L=2", "--tau", "1",
          "--sizes", "16"], "lipschitz:L=1,L=2", "repeats the key 'L'"),
        (["simulate", "--process", "circle:p=0.5", "--embedding", "fourier:D=8,dim=4",
          "--n", "8"], "fourier:D=8,dim=4", "has the unknown key 'dim'"),
        (["simulate", "--process", "circle:p=0.5", "--embedding", "fourier:D=8,D=4",
          "--n", "8"], "fourier:D=8,D=4", "repeats the key 'D'"),
        (["validate", "--check", "martingale", "--chain", "iid:q=0.3,p=0.1", "--trials", "100"],
         "iid:q=0.3,p=0.1", "has the unknown key 'p'"),
        (["validate", "--check", "martingale", "--chain", "iid:q=0.3,q=0.1", "--trials", "100"],
         "iid:q=0.3,q=0.1", "repeats the key 'q'"),
    ])
    def test_spec_takes_each_key_it_reads_once(self, capsys, tmp_path, args, spec, message):
        out = tmp_path / "out.csv"
        err = self.error_of(capsys, args + ["--out", str(out)])
        assert err == {"type": "ValueError", "message": f"spec {spec!r} {message}"}
        assert not out.exists()

    def test_estimate_parses_specs_before_reading(self, capsys, tmp_path):
        err = self.error_of(capsys, ["estimate", "--in", str(tmp_path / "missing.csv"),
                                     "--gauge", "lipschitz:L=", "--tau", "1"])
        assert err["type"] == "ValueError" and "float" in err["message"]
        err = self.error_of(capsys, ["estimate", "--in", str(tmp_path / "missing.csv"),
                                     "--gauge", "lipschitz:L=1", "--tau", "1", "--exclude", "1,x"])
        assert err["type"] == "ValueError" and "'x'" in err["message"]

    @pytest.mark.parametrize("exclude", [[], ["--exclude", "1"]], ids=["all", "exclude"])
    def test_estimate_names_a_tau_past_the_path(self, capsys, tmp_path, exclude):
        # with or without exceptions, tau's owner rejects it by name
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n0.5\n")
        err = self.error_of(capsys, ["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1",
                                     "--tau", "5", *exclude])
        assert err == {"type": "ValueError", "message": "tau=5 must be smaller than n=3"}


class TestNonFiniteValues:
    """A NaN or infinite threshold or estimate fails by name, and no report
    holds a token that is not JSON."""

    def error_of(self, capsys, args):
        assert run(args) == 1
        return json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_estimate_threshold(self, capsys, tmp_path, value):
        pfile = tmp_path / "p.csv"
        pfile.write_text("c0\n0\n1\n0.5\n")
        out = tmp_path / "r.json"
        err = self.error_of(capsys, ["estimate", "--in", str(pfile), "--gauge", "lipschitz:L=1",
                                     "--tau", "1", "--t", value, "--out", str(out)])
        assert err["message"] == f"t must be finite and positive, got {value}"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--kind", "risk", "--g", "nan"], "g_value must be finite and nonnegative, got nan"),
        (["--kind", "risk-exceptions", "--g", "inf"],
         "g_value must be finite and nonnegative, got inf"),
        (["--kind", "excess-loss", "--gt", "0.1", "--t", "nan"],
         "t must be finite and positive, got nan"),
        (["--kind", "risk", "--g", "0.1", "--sup-f", "nan"],
         "sup_f must be nonnegative (+inf allowed), got nan"),
        (["--kind", "risk-exceptions", "--g", "0.1", "--alpha", "nan"],
         "alpha must lie in [0, 1), got nan"),
    ])
    def test_bound_inputs(self, capsys, tmp_path, args, message):
        out = tmp_path / "b.json"
        err = self.error_of(capsys, ["bound", *args, "--n", "10", "--tau", "1",
                                     "--delta", "0.1", "--out", str(out)])
        assert err == {"type": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("check, message", [
        ("good-turing", "threshold must be finite and positive, got nan"),
        ("coverage", "t must be finite and positive, got nan"),
    ])
    def test_validate_threshold(self, capsys, tmp_path, check, message):
        out = tmp_path / "v.json"
        err = self.error_of(capsys, ["validate", "--check", check, "--t", "nan", "--n", "16",
                                     "--trials", "2", "--out", str(out)])
        assert err == {"type": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_reports_never_hold_non_json_numbers(self, tmp_path, value):
        out = tmp_path / "r.json"
        with pytest.raises(ValueError):
            cli._write_json({"t": value}, str(out))
        assert not out.exists()
        cli._write_json({"t": 0.5, "nested": [1.0, {"x": 2}]}, str(out))
        assert json.loads(out.read_text())["t"] == 0.5
