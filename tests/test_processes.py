import math

import numpy as np
import pytest
from scipy import stats

from gaugebounds import (
    EmbeddingSpec,
    FiniteSupport,
    ProcessSpec,
    SamplePath,
    SamplerOracle,
    ZETA_GOLDEN,
    ZETA_SILVER,
    embed,
    empirical_lipschitz,
    fourier_lipschitz_bracket,
    mixing_bounds,
    mixing_time,
    phase_distance,
    simulate,
    simulate_with_details,
    stationary_oracle,
)
from gaugebounds import pathio
from gaugebounds._template import TEMPLATE_16


class TestSimulate:
    def test_deterministic_rotation_pattern(self):
        spec = ProcessSpec.circle_rotation(zeta=0.25, p=0.0, seed=1)
        path = simulate(spec, 6, start=0.0)
        assert np.array_equal(path.coords.ravel(), [0.0, 0.25, 0.5, 0.75, 0.0, 0.25])

    def test_pure_cycle_visits_every_state_in_each_window(self):
        spec = ProcessSpec.cycle_chain(100, 0.0, seed=3)
        path = simulate(spec, 350)
        for lo in range(0, 250, 50):
            window = set(path.symbols[lo:lo + 100].tolist())
            assert window == set(range(100))

    def test_deterministic_given_seed(self):
        spec = ProcessSpec.torus_rotation(p=0.3, seed=12)
        a = simulate(spec, 64)
        b = simulate(spec, 64)
        assert np.array_equal(a.coords, b.coords)

    def test_prefix_stability(self):
        # longer runs extend shorter ones; the decay study relies on this
        for spec in (ProcessSpec.torus_rotation(p=0.2, seed=5),
                     ProcessSpec.cycle_chain(12, 0.4, seed=5),
                     ProcessSpec.iid_uniform("circle", seed=5)):
            short = simulate(spec, 16)
            long = simulate(spec, 64)
            if short.kind == "symbol":
                assert np.array_equal(short.symbols, long.symbols[:16])
            else:
                assert np.array_equal(short.coords, long.coords[:16])

    def test_reset_coupling_exact(self):
        spec = ProcessSpec.circle_rotation(p=0.2, seed=77)
        pa, ra = simulate_with_details(spec, 60, start=0.1)
        pb, rb = simulate_with_details(spec, 60, start=0.9)
        assert np.array_equal(ra, rb)
        first = ra[0]
        assert np.array_equal(pa.coords[first:], pb.coords[first:])
        assert not np.allclose(pa.coords[:first], pb.coords[:first])

    def test_iid_torus_coordinates_uniform(self):
        # pooled one-sample KS per coordinate over 20 seeds; the fixed seed
        # block keeps the check deterministic (a real bias gives p ~ 0)
        samples = np.vstack([
            simulate(ProcessSpec.torus_rotation(p=1.0, seed=100 + s), 512).coords
            for s in range(20)
        ])
        for c in range(2):
            assert stats.kstest(samples[:, c], "uniform").pvalue > 0.01

    def test_cycle_stationary_at_fixed_time(self):
        # marginal of X_5 over many seeds is uniform on the states
        n_states, n_seeds = 10, 2000
        spec = ProcessSpec.cycle_chain(n_states, 0.3)
        values = [int(simulate(spec.with_seed(s), 6).symbols[5]) for s in range(n_seeds)]
        counts = np.bincount(values, minlength=n_states)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_circle_stationary_at_fixed_time(self):
        spec = ProcessSpec.circle_rotation(p=0.15)
        values = [float(simulate(spec.with_seed(s), 5).coords[4, 0]) for s in range(2000)]
        assert stats.kstest(values, "uniform").pvalue > 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="reset"):
            ProcessSpec.cycle_chain(10, 1.5)
        with pytest.raises(ValueError, match="states"):
            ProcessSpec.cycle_chain(1, 0.5)
        with pytest.raises(ValueError, match="space"):
            ProcessSpec.iid_uniform("line")
        with pytest.raises(ValueError):
            simulate(ProcessSpec.circle_rotation(p=0.5), 0)


class TestMixing:
    def test_iid_limit(self):
        assert mixing_bounds(ProcessSpec.cycle_chain(5, 1.0), 3).phi_tau == 0.0

    def test_no_reset_no_guarantee(self):
        assert mixing_bounds(ProcessSpec.circle_rotation(p=0.0), 7).phi_tau == 1.0

    def test_frozen_power(self):
        mix = mixing_bounds(ProcessSpec.cycle_chain(10, 0.1), 22)
        assert mix.phi_tau == pytest.approx(0.09847709021836112, rel=1e-12)
        assert mix.alpha_tau == mix.phi_tau
        assert mix.provenance == "chain-derived"

    def test_minimal_tau_for_tenth(self):
        assert mixing_time(0.1) == 22
        assert (0.9 ** 21) > 0.1
        assert mixing_time(1.0) == 1
        assert mixing_time(0.0) is None
        assert mixing_time(0.001) == 2302

    def test_iid_process_has_no_chain_bound(self):
        with pytest.raises(ValueError, match="iid"):
            mixing_bounds(ProcessSpec.iid_uniform("circle"), 2)


class TestEmbeddings:
    def test_identity_returns_same_path(self):
        path = simulate(ProcessSpec.cycle_chain(5, 0.5, seed=1), 10)
        assert embed(EmbeddingSpec.identity(), path) is path

    def test_fourier_antipodal_distance(self):
        emb = EmbeddingSpec.fourier(2)   # unit-norm scaling, so distance 2
        path = SamplePath.from_coords([[0.125], [0.625]])
        out = embed(emb, path).coords
        assert np.linalg.norm(out[0] - out[1]) == pytest.approx(2.0, rel=1e-12)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, rel=1e-12)

    def test_fourier_bracket_on_small_arcs(self):
        lo, hi, max_arc = fourier_lipschitz_bracket(8)
        rng = np.random.default_rng(3)
        a = rng.random((1000, 1))
        b = (a + rng.random((1000, 1)) * max_arc) % 1.0
        emb = EmbeddingSpec.fourier(8)
        ea, eb = embed(emb, SamplePath.from_coords(a)).coords, embed(emb, SamplePath.from_coords(b)).coords
        ratio = np.sqrt(((ea - eb) ** 2).sum(1)) / phase_distance(a, b)
        assert ratio.min() >= lo * (1 - 1e-9)
        assert ratio.max() <= hi * (1 + 1e-9)

    def test_raster_points_are_centered_and_normalized(self):
        spec = ProcessSpec.torus_rotation(p=1.0, seed=2)
        emb = EmbeddingSpec.raster_rotation(with_scaling=True)
        out = embed(emb, simulate(spec, 64))
        assert out.dim == 256
        norms = np.sqrt((out.coords ** 2).sum(axis=1))
        assert np.abs(norms - 0.5).max() < 1e-12
        assert np.abs(out.coords.mean(axis=1)).max() < 1e-15

    def test_raster_deterministic_in_phase(self):
        emb = EmbeddingSpec.raster_rotation()
        path = SamplePath.from_coords([[0.3], [0.3]])
        out = embed(emb, path).coords
        assert np.array_equal(out[0], out[1])

    def test_raster_scaling_needs_two_phase_coordinates(self):
        emb = EmbeddingSpec.raster_rotation(with_scaling=True)
        with pytest.raises(ValueError, match="dimension"):
            embed(emb, SamplePath.from_coords([[0.3]]))

    def test_fourier_needs_circle_phase(self):
        with pytest.raises(ValueError, match="dimension"):
            embed(EmbeddingSpec.fourier(4), SamplePath.from_coords([[0.1, 0.2]]))
        with pytest.raises(ValueError, match="coordinate"):
            embed(EmbeddingSpec.fourier(4), SamplePath.from_symbols([0, 1]))

    def test_template_is_fixed_and_shared(self):
        assert TEMPLATE_16.shape == (16, 16)
        emb = EmbeddingSpec.raster_rotation()
        assert np.array_equal(emb.template, TEMPLATE_16)

    def test_empirical_lipschitz_is_finite_and_stable(self):
        emb = EmbeddingSpec.raster_rotation(with_scaling=True)
        a = empirical_lipschitz(emb, n_pairs=400, seed=1)
        b = empirical_lipschitz(emb, n_pairs=400, seed=1)
        assert a == b and 0 < a < 100

    def test_fourier_empirical_within_analytic_constant(self):
        emb = EmbeddingSpec.fourier(6)
        _, hi, _ = fourier_lipschitz_bracket(6)
        assert empirical_lipschitz(emb, n_pairs=600, seed=4) <= hi * (1 + 1e-9)


class TestStationaryOracle:
    def test_cycle_gives_finite_support(self):
        oracle = stationary_oracle(ProcessSpec.cycle_chain(8, 0.5))
        assert isinstance(oracle, FiniteSupport)
        assert len(oracle.support) == 8
        assert oracle.probs.sum() == pytest.approx(1.0)

    def test_circle_gives_sampler(self):
        oracle = stationary_oracle(ProcessSpec.iid_uniform("circle"))
        assert isinstance(oracle, SamplerOracle)
        draws = oracle.draw(np.random.default_rng(0), 10)
        assert draws.kind == "coords" and len(draws) == 10

    def test_sampler_applies_embedding(self):
        oracle = stationary_oracle(ProcessSpec.circle_rotation(p=0.5), EmbeddingSpec.fourier(4))
        draws = oracle.draw(np.random.default_rng(0), 5)
        assert draws.dim == 4


class TestPathIO:
    def roundtrip(self, path, tmp_path, fmt):
        f = tmp_path / f"path.{fmt}"
        pathio.write_path(path, f, fmt)
        return pathio.read_path(f, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_coords_roundtrip_bit_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(9)
        path = SamplePath.from_coords(rng.random((37, 3)) * 1e3 - 500.0)
        back = self.roundtrip(path, tmp_path, fmt)
        assert back.kind == "coords"
        assert np.array_equal(back.coords, path.coords)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_symbols_roundtrip(self, tmp_path, fmt):
        path = SamplePath.from_symbols([0, 5, 2, 2, 9])
        back = self.roundtrip(path, tmp_path, fmt)
        assert back.kind == "symbol"
        assert np.array_equal(back.symbols, path.symbols)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_labeled_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(4)
        path = SamplePath.from_labeled(rng.random((11, 2)), rng.choice([-1, 1], 11))
        back = self.roundtrip(path, tmp_path, fmt)
        assert np.array_equal(back.coords, path.coords)
        assert np.array_equal(back.labels, path.labels)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_paired_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(4)
        path = SamplePath.from_paired(rng.random((11, 2)), rng.standard_normal(11))
        back = self.roundtrip(path, tmp_path, fmt)
        assert np.array_equal(back.coords, path.coords)
        assert np.array_equal(back.targets, path.targets)

    def test_csv_header_names_coordinates(self, tmp_path):
        path = SamplePath.from_coords([[1.0, 2.0]])
        f = tmp_path / "p.csv"
        pathio.write_path_csv(path, f)
        assert f.read_text().splitlines()[0] == "c0,c1"

    def test_bin_header_layout(self, tmp_path):
        path = SamplePath.from_coords([[1.0, 2.0], [3.0, 4.0]])
        f = tmp_path / "p.bin"
        pathio.write_path_bin(path, f)
        blob = f.read_bytes()
        assert blob[:4] == b"GBc1"
        assert int.from_bytes(blob[4:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 2
        assert len(blob) == 16 + 2 * 2 * 8

    def test_bin_symbols_round_trip_up_to_float64_exactness(self, tmp_path):
        big = 2 ** 53 - 1
        path = SamplePath.from_symbols([0, 7, big])
        back = self.roundtrip(path, tmp_path, "bin")
        assert back.symbols.tolist() == [0, 7, big]
        for symbol in (2 ** 53, 2 ** 53 + 1):
            with pytest.raises(ValueError, match=str(symbol)):
                pathio.write_path_bin(SamplePath.from_symbols([1, symbol]), tmp_path / "s.bin")

    def test_corrupt_files_rejected(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(ValueError, match="magic"):
            pathio.read_path_bin(f)
        g = tmp_path / "bad.csv"
        g.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            pathio.read_path_csv(g)


class TestRecurrenceTargets:
    # the default increments are chosen so the deterministic motion revisits
    # small neighborhoods on the intended timescales; measured, not assumed

    @staticmethod
    def first_return(coords, radius):
        start = coords[0]
        d = np.abs(coords[1:] - start) % 1.0
        d = np.minimum(d, 1.0 - d)
        hits = np.flatnonzero((d <= radius).all(axis=1))
        return None if hits.size == 0 else int(hits[0]) + 1

    def test_circle_returns_to_small_intervals_in_about_a_hundred_steps(self):
        path = simulate(ProcessSpec.circle_rotation(p=0.0, seed=0), 400, start=0.0)
        ret = self.first_return(path.coords, 0.005)   # interval of length 0.01
        assert ret is not None and 50 <= ret <= 200

    def test_torus_joint_returns_are_much_slower(self):
        # measured: first joint return at 3194 steps with the default pair,
        # versus ~89 on the circle; the test pins the order-of-magnitude gap
        path = simulate(ProcessSpec.torus_rotation(p=0.0, seed=0), 5000,
                        start=(0.0, 0.0))
        ret = self.first_return(path.coords, 0.005)   # square of side 0.01
        assert ret is None or ret >= 1000


def test_default_increments_are_the_documented_irrationals():
    assert ZETA_GOLDEN == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-15)
    assert ZETA_SILVER == pytest.approx(math.sqrt(2) - 1, rel=1e-15)
    spec = ProcessSpec.torus_rotation(p=0.1)
    assert spec.zeta1 == ZETA_GOLDEN and spec.zeta2 == ZETA_SILVER
