"""JSON documents for curve input and command results.

Rationals travel as exact strings, either an integer like ``"-5"`` or a
quotient like ``"-31/27"``; decimal notation is rejected so no rounding can
sneak in.  Serialization sorts keys and formats canonically, making output
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupElement
from .poly import Polynomial
from .vectors import PolyMatrix, PolyVector

# ASCII digits only: ``\d`` would also read other scripts' digits.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


class DocumentError(ValueError):
    """A document fails to parse, violates its schema, or cannot be written."""


def parse_rational(text: str) -> Fraction:
    match = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise DocumentError(f"not an exact rational: {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise DocumentError(f"zero denominator: {text!r}") from None
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise DocumentError(f"rational too long: {len(text)} characters") from None


def format_rational(value: Fraction | int) -> str:
    numerator, denominator = value.numerator, value.denominator
    try:
        if denominator == 1:
            return str(numerator)
        return f"{numerator}/{denominator}"
    except ValueError:  # beyond the interpreter's int-string digit limit
        bits = max(abs(numerator), denominator).bit_length()
        raise DocumentError(f"result too long to write: a {bits}-bit integer") from None


def poly_to_list(p: Polynomial) -> list[str]:
    return [format_rational(c) for c in p.coeffs]


def list_to_poly(items) -> Polynomial:
    if not isinstance(items, (list, tuple)):
        raise DocumentError("polynomial coefficients must be a list")
    return Polynomial(parse_rational(x) for x in items)


def vector_to_dict(v: PolyVector) -> dict:
    return {"n": v.dim, "coeffs": [poly_to_list(c) for c in v.components]}


def dict_to_vector(obj, minimum_dim: int = 1) -> PolyVector:
    if not isinstance(obj, dict):
        raise DocumentError("vector document must be an object")
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list) or not coeffs:
        raise DocumentError("missing coefficient rows")
    n = obj.get("n", len(coeffs))
    if type(n) is not int or n != len(coeffs):
        raise DocumentError("n does not match the number of rows")
    if n < minimum_dim:
        raise DocumentError(f"dimension must be at least {minimum_dim}")
    return PolyVector(list_to_poly(row) for row in coeffs)


def matrix_to_dict(m: PolyMatrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[poly_to_list(e) for e in row] for row in m.rows],
    }


def dict_to_matrix(obj) -> PolyMatrix:
    if not isinstance(obj, dict):
        raise DocumentError("matrix document must be an object")
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        raise DocumentError("missing matrix entries")
    rows, cols = obj.get("rows"), obj.get("cols")
    if type(rows) is not int or type(cols) is not int or rows != len(entries) or any(
        not isinstance(row, list) or len(row) != cols for row in entries
    ):
        raise DocumentError("matrix shape does not match entries")
    return PolyMatrix(
        tuple(list_to_poly(e) for e in row) for row in entries
    )


def rational_matrix_to_lists(matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in matrix]


def lists_to_rational_matrix(obj) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(obj, list) or not obj or not all(
        isinstance(row, list) for row in obj
    ):
        raise DocumentError("rational matrix must be a list of rows")
    rows = tuple(
        tuple(parse_rational(x) for x in row) for row in obj
    )
    if any(len(row) != len(rows[0]) for row in rows):
        raise DocumentError("ragged rational matrix")
    return rows


# A group element is laid out as the payload of a ``section`` result.
def group_to_dict(g: GroupElement) -> dict:
    return write_payload("section", vars(g))


def dict_to_group(obj) -> GroupElement:
    if not isinstance(obj, dict):
        raise DocumentError("group element must be an object")
    try:
        return GroupElement(**read_payload("section", obj))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# JSON gives ``int`` and ``bool`` only, so ``type(x) is int`` refuses booleans.
def _integer(value, kind: str, name: str) -> int:
    if type(value) is not int:
        raise DocumentError(f"{name} must be an integer")
    return value


def _index_list(value, kind: str, name: str) -> tuple[int, ...]:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise DocumentError(f"{kind} {name} must be a list of integers")
    return tuple(value)


def _vector_list(value, kind: str, name: str) -> tuple[PolyVector, ...]:
    if not isinstance(value, list):
        raise DocumentError(f"{kind} {name} must be a list")
    return tuple(dict_to_vector(e) for e in value)


# Each io type's writer and its reader of (stored value, kind, field name).
# The lambdas look each function up when called, so a wrapper rebound over
# a name of this module, as the benchmark's span recorder does, runs too.
_IO_TYPES = {
    "polynomial matrix": (lambda m: matrix_to_dict(m), lambda x, *_: dict_to_matrix(x)),
    "vector": (lambda v: vector_to_dict(v), lambda x, *_: dict_to_vector(x)),
    "list of vectors": (lambda vs: [vector_to_dict(v) for v in vs], _vector_list),
    "group": (lambda g: group_to_dict(g), lambda x, *_: dict_to_group(x)),
    "rational": (lambda q: format_rational(q), lambda x, *_: parse_rational(x)),
    "rational matrix": (lambda m: rational_matrix_to_lists(m),
                        lambda x, *_: lists_to_rational_matrix(x)),
    "integer": (lambda i: i, _integer),
    "index list": (list, _index_list),
}

# Each result kind's payload fields, in order, with their io types.  The
# names are those of the kind's result type (``FrameResult``, ``Completion``,
# ``BezoutVector``, ``MuBasis``, ``GroupElement``, ``SylvesterSystem``);
# ``canonical``, with none, holds the pair ``section_and_canonical`` returns.
PAYLOADS = {
    "frame": {"matrix": "polynomial matrix", "section": "group",
              "canonical_tangent": "vector", "bezout_degree": "integer"},
    "completion": {"matrix": "polynomial matrix", "bezout_degree": "integer"},
    "bezout": {"vector": "vector", "degree": "integer"},
    "mubasis": {"elements": "list of vectors", "scale": "rational"},
    "section": {"matrix": "rational matrix", "shift": "rational"},
    "canonical": {"section": "group", "vector": "vector"},
    "sylvester": {"matrix": "rational matrix", "pivot_cols": "index list",
                  "nonpivot_cols": "index list", "basic_nonpivot": "index list",
                  "reduced": "rational matrix"},
}

# Fields a payload may leave out: ``sylvester --dump-pivots`` alone writes ``reduced``.
OPTIONAL = frozenset({("sylvester", "reduced")})
RESULT_KINDS = frozenset({*PAYLOADS, "verify"})


def write_payload(kind: str, fields: dict) -> dict:
    """The payload of a result of ``kind``: each field by its io type's writer."""
    return {name: _IO_TYPES[PAYLOADS[kind][name]][0](v) for name, v in fields.items()}


def read_field(kind: str, payload: dict, name: str):
    """One stored field, read by its io type; a missing field reads as null."""
    return _IO_TYPES[PAYLOADS[kind][name]][1](payload.get(name), kind, name)


def read_payload(kind: str, payload: dict) -> dict:
    """Every stored field in table order; an optional one only if present."""
    names = [n for n in PAYLOADS[kind] if n in payload or (kind, n) not in OPTIONAL]
    return {name: read_field(kind, payload, name) for name in names}


@dataclass(frozen=True)
class CurveDocument:
    """Parsed curve (or plain polynomial vector) input."""

    vector: PolyVector
    label: str | None = None

    @property
    def n(self) -> int:
        return self.vector.dim


def parse_curve_dict(obj) -> CurveDocument:
    if not isinstance(obj, dict):
        raise DocumentError("curve document must be a JSON object")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise DocumentError("label must be a string")
    return CurveDocument(dict_to_vector(obj, minimum_dim=2), label)


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise DocumentError(f"invalid JSON: {exc}") from exc


def parse_curve(text: str) -> CurveDocument:
    return parse_curve_dict(_load_json(text))


def curve_to_dict(doc: CurveDocument) -> dict:
    out = vector_to_dict(doc.vector)
    if doc.label is not None:
        out["label"] = doc.label
    return out


@dataclass(frozen=True)
class ResultDocument:
    """Self-describing command output that embeds its own input."""

    kind: str
    payload: dict
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "payload": self.payload,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, obj) -> "ResultDocument":
        if not isinstance(obj, dict):
            raise DocumentError("result document must be a JSON object")
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in RESULT_KINDS:
            raise DocumentError(f"unknown result kind: {kind!r}")
        payload = obj.get("payload")
        metadata = obj.get("metadata")
        if not isinstance(payload, dict) or not isinstance(metadata, dict):
            raise DocumentError("payload and metadata must be objects")
        return cls(kind, payload, metadata)

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        return cls.from_dict(_load_json(text))


def parse_param_list(text: str) -> list[Fraction]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise DocumentError("empty parameter list")
    return [parse_rational(x) for x in items]


def parse_projection(text: str, dim: int) -> tuple[int, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise DocumentError("projection needs exactly two axes")
    if not all(_INTEGER_RE.fullmatch(p) for p in parts):
        raise DocumentError("projection axes must be integers")
    try:
        axes = tuple(int(p) for p in parts)
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise DocumentError("projection axes must be distinct and in range") from None
    if axes[0] == axes[1] or any(not 0 <= a < dim for a in axes):
        raise DocumentError("projection axes must be distinct and in range")
    return axes  # type: ignore[return-value]
