"""Deterministic SVG rendering of a curve with frame vectors.

Only the two projected components of the curve and the two projected rows
of the frame are evaluated.  Each is evaluated exactly, on integers: the
coefficient and point denominators are cleared, integer Horner gives a
scaled value, and one true division rounds it to the float written into the
SVG text.  That is the float ``Fraction.__float__`` gives, so the drawing
layer cannot contaminate any exact result.  A drawing whose coordinates or
extent do not fit in a float is refused.  Identical inputs yield
byte-identical output: fixed sampling, fixed formatting, no timestamps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import Polynomial, horner, integer_coefficients
from .ratlin import clear_denominators
from .vectors import PolyMatrix, PolyVector

_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")
_SAMPLES = 128


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _floats(p: Polynomial, nums: Sequence[int], den: int) -> list[float]:
    """``float(p.evaluate(Fraction(x, den)))`` for each ``x`` in ``nums``.

    With ``L`` the lcm of the coefficient denominators and ``d`` the degree,
    ``den**d * L * p(x / den)`` is an integer, found by integer Horner on the
    scaled coefficients.  One correctly rounded ``int / int`` division by
    ``den**d * L`` (``den > 0``) finishes each value; a value beyond the
    float range becomes an infinity of its sign.
    """
    if not p.coeffs:
        return [0.0] * len(nums)
    [ints], lcm = integer_coefficients([p])
    d = len(ints) - 1
    # highest power first, times den ** (d - power)
    scaled = [c * den**i for i, c in enumerate(reversed(ints))]
    scale = lcm * den**d
    out = []
    for x in nums:
        acc = horner(scaled, x)
        try:
            out.append(acc / scale)
        except OverflowError:
            out.append(math.inf if acc > 0 else -math.inf)
    return out


def render_plot(
    curve: PolyVector,
    frame: PolyMatrix,
    params: Sequence[Fraction],
    axes: tuple[int, int],
) -> str:
    """Projected curve polyline with frame-vector arrows at each parameter.

    The caller has checked that ``params`` is nonempty, ``frame`` is n x n
    and ``axes`` are distinct indices below n."""
    ax, ay = axes
    # The grid lo + i * (hi - lo) / _SAMPLES over one denominator.
    lo = min(params) - 1
    hi = max(params) + 1
    den = lo.denominator * hi.denominator * _SAMPLES
    start = lo.numerator * hi.denominator * _SAMPLES
    step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    grid = [start + i * step for i in range(_SAMPLES + 1)]
    # y is negated so the drawing keeps mathematical orientation.
    curve_x = _floats(curve[ax], grid, den)
    curve_y = [-y for y in _floats(curve[ay], grid, den)]

    [pnums], pden = clear_denominators([params])
    base_x = _floats(curve[ax], pnums, pden)
    base_y = _floats(curve[ay], pnums, pden)
    cols_x = [_floats(e, pnums, pden) for e in frame.rows[ax]]
    cols_y = [_floats(e, pnums, pden) for e in frame.rows[ay]]
    arrows = []
    for k in range(len(params)):
        x0, y0 = base_x[k], -base_y[k]
        for j in range(frame.ncols):
            dx = cols_x[j][k]
            dy = -cols_y[j][k]
            arrows.append((j, x0, y0, x0 + dx, y0 + dy))

    xs = curve_x + [a[1] for a in arrows] + [a[3] for a in arrows]
    ys = curve_y + [a[2] for a in arrows] + [a[4] for a in arrows]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width = max(xmax - xmin, 1e-9)
    height = max(ymax - ymin, 1e-9)
    pad_x, pad_y = 0.05 * width, 0.05 * height
    box = (xmin - pad_x, ymin - pad_y, width + 2 * pad_x, height + 2 * pad_y)
    if not all(map(math.isfinite, xs + ys + list(box))):
        raise ValueError(
            "drawing is not finite: a coordinate or its extent exceeds "
            "the float range"
        )
    view = " ".join(_fmt(v) for v in box)
    stroke = max(width, height) / 200.0

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="640" height="480" viewBox="{view}">',
        "<defs>",
        '<marker id="tip" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto" markerUnits="strokeWidth">'
        '<path d="M0,0 L6,3 L0,6 z" fill="#333333"/></marker>',
        "</defs>",
        '<polyline fill="none" stroke="#222222" '
        f'stroke-width="{_fmt(stroke)}" points="'
        + " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(curve_x, curve_y))
        + '"/>',
    ]
    for j, x0, y0, x1, y1 in arrows:
        color = _PALETTE[j % len(_PALETTE)]
        lines.append(
            f'<line class="frame-col-{j}" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
            f'x2="{_fmt(x1)}" y2="{_fmt(y1)}" stroke="{color}" '
            f'stroke-width="{_fmt(stroke)}" marker-end="url(#tip)"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
