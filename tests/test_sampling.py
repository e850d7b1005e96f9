"""``sample_batch`` draws the points of the rejection sampler it replaced.

The reference below is that sampler's body: each block drawn with
``Generator.uniform(lows, highs, size=(k, d))`` and filtered through
``ChartManifold.contains``.  ``sample_batch`` draws each block as
``lows + widths * rng.random((k, d))``, skips the domain pass of a chart
without constraints and keeps a block that rejects nothing as drawn; the
points must keep every bit, and every refusal its kind.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmsolitons.config import builtin_config
from acmsolitons.expr import EvalError, parse_expr
from acmsolitons.geometry import ChartManifold, sample_batch
from acmsolitons.suites import run_suites
from acmsolitons.tensor import StructureError

COORDS = ("x", "y")


def _chart(name, *constraints) -> ChartManifold:
    one, zero = parse_expr("1", coords=COORDS), parse_expr("0", coords=COORDS)
    return ChartManifold(
        COORDS, [[one, zero], [zero, one]],
        tuple(parse_expr(c, coords=COORDS) for c in constraints), name=name,
    )


FREE = _chart("free")
NEVER = _chart("never", "2 + sin(x)")  # a constraint that rejects nothing
DISC = _chart("disc", "1 - x^2 - y^2")  # rejects about 1 - pi/4 of [-1, 1]^2


def _reference(manifold, box, count, seed) -> dict:
    """The former body of ``sample_batch``."""
    rng = np.random.default_rng(seed)
    lows = np.array([box[c][0] for c in manifold.coords])
    highs = np.array([box[c][1] for c in manifold.coords])
    for c in manifold.coords:
        if not np.isfinite(float(box[c][1]) - float(box[c][0])):
            raise StructureError(f"sampling box of {manifold.name} is too "
                                 f"wide in {c}: {box[c]} has no finite width")
    limit = 1000 * count + 1000
    blocks = []
    accepted = drawn = 0
    while accepted < count:
        if drawn >= limit:
            raise StructureError(
                f"could not draw {count} points inside the domain of "
                f"{manifold.name}; box {box} may miss the domain"
            )
        k = min(count - accepted, limit - drawn)
        draw = rng.uniform(lows, highs, size=(k, manifold.dim))
        drawn += k
        try:
            inside = manifold.contains(dict(zip(manifold.coords, draw.T)))
        except EvalError as err:
            raise StructureError(
                f"domain constraint of {manifold.name} cannot be evaluated: {err}"
            ) from err
        blocks.append(draw[inside])
        accepted += int(np.count_nonzero(inside))
    points = np.concatenate(blocks)
    return {c: points[:, i] for i, c in enumerate(manifold.coords)}


_WIDTHS = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e300, 1.5e308]) \
    | st.floats(min_value=0.0, max_value=1.7e308)


@st.composite
def _free_box(draw):
    """A finite box of negative, tiny or wide widths, anywhere."""
    box = {}
    for c in COORDS:
        low = draw(st.floats(min_value=-1e308, max_value=1e308))
        width = draw(_WIDTHS) * draw(st.sampled_from([1.0, 1.0, 1.0, -1.0]))
        high = low + width
        if np.isfinite(high):
            box[c] = (low, high)
        else:
            box[c] = (low, low)
    return box


@st.composite
def _disc_box(draw):
    """A box about [-1, 1]^2, where the disc rejects about a fifth."""
    return {c: (draw(st.floats(min_value=-1.25, max_value=-0.75)),
                draw(st.floats(min_value=0.75, max_value=1.25)))
            for c in COORDS}


def _outcome(sample, manifold, box, count, seed):
    try:
        return sample(manifold, box, count, seed)
    except (StructureError, ValueError) as err:
        return err


@settings(max_examples=300, deadline=None)
@given(
    chart=st.sampled_from([FREE, NEVER, DISC]),
    data=st.data(),
    count=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2 ** 63),
)
def test_same_bits_as_the_uniform_rejection_sampler(chart, data, count, seed):
    box = data.draw(_disc_box() if chart is DISC else _free_box())
    expected = _outcome(_reference, chart, box, count, seed)
    got = _outcome(sample_batch, chart, box, count, seed)
    if isinstance(expected, ValueError):
        # numpy's "high - low < 0" for an inverted box
        assert isinstance(got, StructureError), got
        assert f"sampling box of {chart.name} is inverted in" in str(got)
        assert any(box[c][1] < box[c][0] for c in COORDS)
        return
    if isinstance(expected, StructureError):
        assert type(got) is StructureError and str(got) == str(expected)
        return
    assert list(got) == list(COORDS)
    for c in COORDS:
        assert got[c].dtype == np.float64 and got[c].flags.c_contiguous
        assert np.array_equal(got[c].view(np.uint64),
                              expected[c].view(np.uint64)), c


def test_the_disc_draws_several_blocks():
    # the hypothesis test above compares multi-block draws only if the
    # disc rejects: about a fifth of [-1, 1]^2
    rng = np.random.default_rng(5)
    draw = rng.uniform(-1.0, 1.0, size=(4096, 2))
    inside = DISC.contains({"x": draw[:, 0], "y": draw[:, 1]})
    assert 0.15 < 1.0 - inside.mean() < 0.28


@pytest.mark.parametrize("count", [0, -3])
def test_count_below_one_is_refused(count):
    with pytest.raises(StructureError,
                       match=f"cannot draw {count} points in disc: "
                             "the count must be at least 1"):
        sample_batch(DISC, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}, count, 42)


def test_inverted_box_is_refused():
    with pytest.raises(StructureError,
                       match=r"sampling box of free is inverted in y: "
                             r"\(1\.0, 0\.5\) has low > high"):
        sample_batch(FREE, {"x": (0.0, 1.0), "y": (1.0, 0.5)}, 4, 42)


def test_too_wide_box_is_refused_before_any_array_arithmetic():
    # the width is tested on the bounds alone, so no overflow is warned of
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError,
                           match="sampling box of free is too wide in x"):
            sample_batch(FREE, {"x": (-1e308, 1e308), "y": (0.0, 1.0)}, 4, 42)


def test_a_chart_without_constraints_takes_no_domain_pass(monkeypatch):
    config = builtin_config("euclidean3")
    assert not config.manifold.constraints
    config.points = 8

    def spy(self, point):
        raise AssertionError(f"contains called on {self.name}")

    monkeypatch.setattr(ChartManifold, "contains", spy)
    assert run_suites(config)
