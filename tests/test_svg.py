"""Floats of the drawing against exact evaluation."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from affine_frames.svg import _floats

from conftest import polynomials

# A start and a step with unlike denominators, as render_plot's grid has,
# plus a few arbitrary points.
points = st.builds(
    lambda start, step, extra: [start + i * step for i in range(5)] + extra,
    st.fractions(-20, 0, max_denominator=30),
    st.fractions(0, 3, max_denominator=256),
    st.lists(st.fractions(-50, 50, max_denominator=1000), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(polynomials, points)
def test_floats_equal_exact_values_rounded_once(p, xs):
    den = math.lcm(*(x.denominator for x in xs))
    nums = [x.numerator * (den // x.denominator) for x in xs]
    got = _floats(p, nums, den)
    for x, value in zip(xs, got, strict=True):
        want = float(p.evaluate(x))
        assert value == want
        assert math.copysign(1.0, value) == math.copysign(1.0, want)
