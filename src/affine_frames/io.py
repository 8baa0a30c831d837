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
from typing import Sequence

from .groups import GroupElement
from .poly import Polynomial
from .vectors import PolyMatrix, PolyVector

# ASCII digits only: ``\d`` would also read other scripts' digits.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")

RESULT_KINDS = frozenset(
    {
        "frame",
        "completion",
        "bezout",
        "mubasis",
        "section",
        "canonical",
        "sylvester",
        "verify",
    }
)


class DocumentError(ValueError):
    """A document fails to parse, violates its schema, or cannot be written."""


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text.strip()):
        raise DocumentError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text.strip())
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
    if not isinstance(n, int) or n != len(coeffs):
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
    if obj.get("rows") != len(entries) or any(
        not isinstance(row, list) or len(row) != obj.get("cols")
        for row in entries
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


def group_to_dict(g: GroupElement) -> dict:
    return {
        "matrix": rational_matrix_to_lists(g.matrix),
        "shift": format_rational(g.shift),
    }


def dict_to_group(obj) -> GroupElement:
    if not isinstance(obj, dict):
        raise DocumentError("group element must be an object")
    try:
        return GroupElement(
            lists_to_rational_matrix(obj.get("matrix")),
            parse_rational(obj.get("shift")),
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


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


def parse_curve(text: str) -> CurveDocument:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return parse_curve_dict(obj)


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
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
            raise DocumentError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(obj)


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
