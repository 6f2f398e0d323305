"""The row-blocked raster kernel against the plain whole-array render, bit for bit."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugebounds import EmbeddingSpec, ProcessSpec, SamplePath, embed, simulate
from gaugebounds import processes
from gaugebounds._template import TEMPLATE_16

ROWS = processes._RASTER_ROWS


def whole_array_embed(template, phases, with_scaling):
    """The raster embedding as one (n, 256) computation: bilinear samples
    masked by np.where(valid, ...), summed into zeros, then centered and
    normalized over the whole array."""
    size = 16
    center = (size - 1) / 2.0
    grid = np.arange(size, dtype=np.float64) - center
    px = np.tile(grid, size)
    py = np.repeat(grid, size)
    angles = 2.0 * math.pi * phases[:, 0]
    if with_scaling:
        scales = 0.75 + np.cos(2.0 * math.pi * phases[:, 1]) / 4.0
    else:
        scales = np.ones(len(phases), dtype=np.float64)
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    inv_s = (1.0 / scales)[:, None]
    sx = (cos * px + sin * py) * inv_s + center
    sy = (-sin * px + cos * py) * inv_s + center
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    imgs = np.zeros_like(sx)
    for dx, dy, w in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                      (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
        xi = (x0 + dx).astype(np.int64)
        yi = (y0 + dy).astype(np.int64)
        valid = (xi >= 0) & (xi < size) & (yi >= 0) & (yi < size)
        vals = template[np.clip(yi, 0, size - 1), np.clip(xi, 0, size - 1)]
        imgs += w * np.where(valid, vals, 0.0)
    imgs = imgs - imgs.mean(axis=1, keepdims=True)
    norms = np.sqrt((imgs * imgs).sum(axis=1))
    if (norms < 1e-12).any():
        raise ValueError("degenerate raster image with zero contrast")
    imgs *= (0.5 / norms)[:, None]
    return imgs


def assert_embeds_like_whole_array(phases, with_scaling=False, template=None):
    phases = np.asarray(phases, dtype=np.float64).reshape(len(phases), -1)
    emb = EmbeddingSpec.raster_rotation(with_scaling=with_scaling, template=template)
    got = embed(emb, SamplePath.from_coords(phases)).coords
    want = whole_array_embed(emb.template, phases, with_scaling)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _quarter_turns():
    turns = np.array([0.0, 0.25, 0.5, 0.75, 1.0, -0.25, 2.5])
    return np.concatenate([turns, np.nextafter(turns, np.inf), np.nextafter(turns, -np.inf)])


_EDGE_PHASES = st.sampled_from(_quarter_turns().tolist() + [1e6, -1e6, 1e6 + 0.125, 123456.789])
_PHASES = st.one_of(_EDGE_PHASES, st.floats(0.0, 1.0), st.floats(-1e6, 1e6))
_SCALE_PHASES = st.one_of(st.sampled_from([0.0, 0.5]), _PHASES)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.sampled_from([1, 3, ROWS]), with_scaling=st.booleans())
def test_embed_is_bit_identical_to_the_whole_array_render(data, rows, with_scaling):
    n = data.draw(st.integers(1, 3 * rows + 2), label="n")
    first = data.draw(st.lists(_PHASES, min_size=n, max_size=n), label="phase1")
    columns = [first]
    if with_scaling:
        columns.append(data.draw(st.lists(_SCALE_PHASES, min_size=n, max_size=n), label="phase2"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "_RASTER_ROWS", rows)
        assert_embeds_like_whole_array(np.column_stack(columns), with_scaling)


@pytest.mark.parametrize("rows", [1, 3, ROWS])
@pytest.mark.parametrize("with_scaling", [False, True])
def test_block_boundaries(monkeypatch, rows, with_scaling):
    monkeypatch.setattr(processes, "_RASTER_ROWS", rows)
    rng = np.random.default_rng(rows)
    for n in sorted({1, max(rows - 1, 1), rows, rows + 1, 3 * rows + 1}):
        assert_embeds_like_whole_array(rng.random((n, 1 + with_scaling)), with_scaling)


@pytest.mark.parametrize("phase2, scale", [(0.0, 1.0), (0.5, 0.5)])
def test_quarter_turns_and_their_neighbours(phase2, scale):
    # the scale's end points put pixel centres on whole template pixels
    assert 0.75 + math.cos(2.0 * math.pi * phase2) / 4.0 == scale
    turns = _quarter_turns()
    assert_embeds_like_whole_array(turns[:, None])
    assert_embeds_like_whole_array(np.column_stack([turns, np.full_like(turns, phase2)]), True)


def test_large_phases():
    phases = np.array([1e6, -1e6, 1e6 + 0.25, 2.0 ** 40 + 0.5, 1e15, -1e15])
    assert_embeds_like_whole_array(phases[:, None])
    assert_embeds_like_whole_array(np.column_stack([phases, phases[::-1]]), True)


def _signed_template():
    tpl = TEMPLATE_16 - 0.5                            # negative and positive values
    tpl[::3, ::2] = -0.0
    tpl[1::4, 1::3] = 5e-324                           # smallest subnormal
    tpl[2::5, ::4] = -2.0 ** -1070                     # negative subnormal
    tpl[0, :] = 0.0
    return tpl


@pytest.mark.parametrize("template", [
    None, -TEMPLATE_16, _signed_template(),
], ids=["default", "negated", "signed-zeros-and-subnormals"])
def test_custom_templates(template):
    rng = np.random.default_rng(11)
    phases = np.concatenate([rng.random(3 * ROWS + 1), _quarter_turns()])
    assert_embeds_like_whole_array(phases[:, None], template=template)
    pairs = np.column_stack([phases, rng.random(len(phases))])
    assert_embeds_like_whole_array(pairs, True, template=template)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_template_fails_at_construction(bad):
    tpl = TEMPLATE_16.copy()
    tpl[7, 3] = bad
    with pytest.raises(ValueError, match="raster template must be finite"):
        EmbeddingSpec.raster_rotation(template=tpl)


def test_zero_contrast_image_in_a_later_block():
    # a single bright corner pixel leaves the grid under an eighth turn
    tpl = np.zeros((16, 16))
    tpl[0, 0] = 1.0
    phases = np.zeros((2 * ROWS + 5, 1))
    phases[-3] = 0.125
    emb = EmbeddingSpec.raster_rotation(template=tpl)
    with pytest.raises(ValueError, match="^degenerate raster image with zero contrast$"):
        whole_array_embed(emb.template, phases, False)
    with pytest.raises(ValueError, match="^degenerate raster image with zero contrast$"):
        embed(emb, SamplePath.from_coords(phases))
    embed(emb, SamplePath.from_coords(phases[:-3]))


def test_zero_contrast_template_keeps_its_message():
    emb = EmbeddingSpec.raster_rotation(template=np.zeros((16, 16)))
    with pytest.raises(ValueError, match="^degenerate raster image with zero contrast$"):
        embed(emb, SamplePath.from_coords([[0.3]]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_huge_template_values_fail_loudly():
    # finite, but the image's sum of squares overflows to +inf
    emb = EmbeddingSpec.raster_rotation(template=TEMPLATE_16 * 1e300)
    with pytest.raises(ValueError, match="^raster image norm overflows"):
        embed(emb, SamplePath.from_coords([[0.3]]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_image_in_a_later_block():
    # the huge corner pixel leaves the grid under an eighth turn, so only
    # the one unrotated image overflows
    tpl = TEMPLATE_16.copy()
    tpl[0, 0] = 1e300
    phases = np.full((2 * ROWS + 5, 1), 0.125)
    phases[-3] = 0.0
    emb = EmbeddingSpec.raster_rotation(template=tpl)
    with pytest.raises(ValueError, match="^raster image norm overflows"):
        embed(emb, SamplePath.from_coords(phases))
    rest = embed(emb, SamplePath.from_coords(phases[:-3])).coords
    assert np.allclose(np.sqrt((rest * rest).sum(axis=1)), 0.5)


# SHA-256 of the raster embedding (with scaling) of a seeded 4096-point torus
# path, computed with the whole-array render before the row-blocked kernel
GOLDEN_TORUS_4096 = "703884af658b6b6201084215cf5da8d19ba0c4fa259cabb14f71ab6f2ae7ee95"


def test_golden_digest_of_a_seeded_torus_embedding():
    path = simulate(ProcessSpec.torus_rotation(p=0.1, seed=2026), 4096)
    coords = embed(EmbeddingSpec.raster_rotation(with_scaling=True), path).coords
    assert coords.shape == (4096, 256)
    assert hashlib.sha256(coords.tobytes()).hexdigest() == GOLDEN_TORUS_4096
