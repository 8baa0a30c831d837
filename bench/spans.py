"""Span recording around the library's public functions, from outside ``src/``.

``Recorder.install()`` replaces every binding of each target function in the
``affine_frames`` modules (a function imported by name into another module
is bound there too, and that is the name its callers look up) with a wrapper
that records a span: name, start, end, parent span and request id.  Spans
stay in memory until the run ends.  ``uninstall()`` puts the originals back.

Polynomial arithmetic is not wrapped: it is too fine-grained, and its time
counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction

# (span name, "module:attribute") for every wrapped function.  Several
# functions may share a span name; their calls and self time then add up.
TARGETS = (
    ("cli.main", "cli:main"),
    ("io.parse", "io:parse_curve"),
    ("io.parse", "io:parse_curve_dict"),
    ("io.parse", "io:ResultDocument.from_json"),
    ("io.parse", "io:dict_to_vector"),
    ("io.parse", "io:dict_to_matrix"),
    ("io.parse", "io:lists_to_rational_matrix"),
    ("io.parse", "io:parse_param_list"),
    ("io.parse", "io:parse_projection"),
    ("io.serialize", "io:ResultDocument.to_json"),
    ("io.serialize", "io:curve_to_dict"),
    ("io.serialize", "io:vector_to_dict"),
    ("io.serialize", "io:matrix_to_dict"),
    ("io.serialize", "io:group_to_dict"),
    ("io.serialize", "io:rational_matrix_to_lists"),
    ("svg.render", "svg:render_plot"),
    ("frames.validate_curve", "frames:validate_curve"),
    ("frames.moving_frame", "frames:moving_frame"),
    ("completion.minimal_completion", "completion:minimal_completion"),
    ("completion.verify_completion", "completion:verify_completion"),
    ("equivariance.section", "equivariance:section"),
    ("equivariance.section", "equivariance:shift_section"),
    ("equivariance.section", "equivariance:linear_section"),
    ("equivariance.section", "equivariance:canonical_form"),
    ("equivariance.section", "equivariance:equivariant_completion_with_section"),
    ("equivariance.pivot_profile", "equivariance:pivot_profile"),
    ("bezout.minimal_bezout", "bezout:minimal_bezout"),
    ("bezout.mu_basis", "bezout:mu_basis"),
    ("bezout.degree_search", "bezout:bezout_degree_search"),
    ("sylvester.build", "sylvester:build_sylvester"),
    ("vectors.determinant", "vectors:PolyMatrix.determinant"),
    ("vectors.outer_product", "vectors:outer_product"),
    ("vectors.require_regular", "vectors:require_regular"),
    ("groups.apply", "groups:GroupElement.apply"),
    ("poly.gcd", "poly:poly_gcd"),
    ("ratlin.rref_with_transform", "ratlin:rref_with_transform"),
    ("ratlin.rref", "ratlin:rref"),
    ("ratlin.rank", "ratlin:rank"),
    ("ratlin.det", "ratlin:det"),
    ("ratlin.inverse", "ratlin:inverse"),
)

RATLIN = tuple(name for name, _ in TARGETS if name.startswith("ratlin."))

# Span record fields.
NAME, START, END, PARENT, REQUEST, VALUE = range(6)


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length of the Fractions in ``obj``."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, tuple):
        return max((max_bits(x) for x in obj), default=0)
    return 0


def _sylvester_cells(system) -> int:
    return system.nrows * system.ncols


# What a span records about its result, measured outside the span's time.
OBSERVERS = {name: max_bits for name in RATLIN}
OBSERVERS["sylvester.build"] = _sylvester_cells


class Recorder:
    """In-memory span list on a clock that skips the recorder's own scans.

    ``excluded``, if given, has a ``spent_ns`` count of other time that ran
    inside spans and is not the program's; the clock skips that too.
    """

    def __init__(self, excluded=None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.excluded = excluded
        self._paused_ns = 0
        self._restore: list[tuple[object, str, object]] = []

    def now(self) -> int:
        skipped = self._paused_ns + (self.excluded.spent_ns if self.excluded else 0)
        return time.perf_counter_ns() - skipped

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.request, None])
            stack.append(index)
            spans[index][START] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = self.now()
                stack.pop()
            if observe is not None:
                began = self.now()
                spans[index][VALUE] = observe(result)
                self._paused_ns += self.now() - began
            return result

        return wrapper

    def install(self) -> None:
        importlib.import_module("affine_frames.cli")
        modules = [
            module for key, module in sys.modules.items()
            if key == "affine_frames" or key.startswith("affine_frames.")
        ]
        for name, target in TARGETS:
            module_name, attr = target.split(":")
            owner = importlib.import_module(f"affine_frames.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
