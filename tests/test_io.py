"""Document parsing and serialization round trips."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_frames import GroupElement, PolyMatrix, PolyVector
from affine_frames.io import (
    OPTIONAL,
    PAYLOADS,
    RESULT_KINDS,
    CurveDocument,
    DocumentError,
    ResultDocument,
    curve_to_dict,
    dict_to_group,
    dict_to_matrix,
    dict_to_vector,
    format_rational,
    group_to_dict,
    lists_to_rational_matrix,
    matrix_to_dict,
    parse_curve,
    parse_curve_dict,
    parse_param_list,
    parse_projection,
    parse_rational,
    rational_matrix_to_lists,
    read_payload,
    vector_to_dict,
    write_payload,
)

from conftest import coefficients, p, polynomials_up_to, quintic_curve, vec


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-31/27") == Fraction(-31, 27)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


def test_parse_rational_rejections():
    with pytest.raises(DocumentError, match="not an exact rational"):
        parse_rational("1.5")
    with pytest.raises(DocumentError, match="not an exact rational"):
        parse_rational("2e3")
    with pytest.raises(DocumentError, match="not an exact rational"):
        parse_rational("")
    with pytest.raises(DocumentError, match="not an exact rational"):
        parse_rational(1.5)
    with pytest.raises(DocumentError, match="zero denominator"):
        parse_rational("1/0")
    # digits of other scripts would not survive the round trip
    for text in ("\u0661", "1/\u0662", "\uff13"):
        with pytest.raises(DocumentError, match="not an exact rational"):
            parse_rational(text)
    for text in ("1/00", "-3/000", "0/0"):
        with pytest.raises(DocumentError, match="zero denominator"):
            parse_rational(text)


def _guarded_fraction(text):
    """An exact rational by the pattern, then ``Fraction`` of the stripped
    text; the message of a refusal otherwise."""
    pattern = r"[+-]?[0-9]+(?:/[0-9]+)?"
    if not isinstance(text, str) or not re.fullmatch(pattern, text.strip()):
        return f"not an exact rational: {text!r}"
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        return f"zero denominator: {text!r}"
    except ValueError:
        return f"rational too long: {len(text)} characters"


def _parsed(text):
    try:
        return parse_rational(text)
    except DocumentError as error:
        return str(error)


# Signs, whitespace (ASCII and not), underscores, decimal points, exponents,
# other scripts' digits, and digit runs on both sides of the int-string limit.
_PIECES = st.sampled_from([
    "0", "7", "12", "+", "-", "/", " ", "\t", "\u00a0", "_", ".", "e", "\u0663",
    "\uff11",
])
_DIGITS = st.builds(
    lambda k, digit: digit * k, st.integers(4290, 5000), st.sampled_from("019")
)
_TEXTS = st.one_of(
    st.lists(_PIECES, max_size=8).map("".join),
    st.tuples(st.sampled_from(["", "-", "+", " "]), _DIGITS,
              st.sampled_from(["", "/7", "/0", "/" + "3" * 5000, " "])).map("".join),
    st.tuples(st.sampled_from(["1/", "-2/"]), _DIGITS).map("".join),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
@example("1_0")
@example(1.5)
@example(" -12/0 ")
@example("1" * 5000)
@example("1/" + "0" * 5000)
@example("0" * 5000 + "/0")
def test_parse_rational_as_the_pattern_and_fraction(text):
    """Each text is refused or accepted, with the same value or message, as
    by the pattern followed by ``Fraction`` of the stripped text."""
    assert _parsed(text) == _guarded_fraction(text)


def test_format_rational():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-31, 27)) == "-31/27"
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert parse_rational(format_rational(Fraction(-97, 81))) == Fraction(-97, 81)


def test_vector_roundtrip():
    v = quintic_curve()
    assert dict_to_vector(vector_to_dict(v)) == v
    doc = vector_to_dict(v)
    assert doc["n"] == 3
    assert doc["coeffs"][0][1] == "1"
    assert doc["coeffs"][2][2] == "5/2"


def test_vector_errors():
    with pytest.raises(DocumentError, match="does not match"):
        dict_to_vector({"n": 2, "coeffs": [["1"], ["0"], ["2"]]})
    with pytest.raises(DocumentError, match="missing coefficient"):
        dict_to_vector({"n": 1, "coeffs": []})
    with pytest.raises(DocumentError):
        dict_to_vector(["1", "2"])
    # JSON true and 1.0 equal 1 in Python, but neither is an integer
    for n in (True, 1.0):
        with pytest.raises(DocumentError, match="does not match"):
            dict_to_vector({"n": n, "coeffs": [["1"]]})


def test_matrix_errors():
    doc = {"rows": 1, "cols": 1, "entries": [[["1"]]]}
    assert dict_to_matrix(doc) == PolyMatrix([[p(1)]])
    for key in ("rows", "cols"):
        for value in (True, 1.0):
            with pytest.raises(DocumentError, match="shape"):
                dict_to_matrix(dict(doc, **{key: value}))


def test_curve_document():
    text = json.dumps(
        {"n": 2, "coeffs": [["0", "1"], ["0", "0", "1"]], "label": "parabola"}
    )
    doc = parse_curve(text)
    assert doc.vector == vec((0, 1), (0, 0, 1))
    assert doc.label == "parabola"
    assert doc.n == 2
    rebuilt = curve_to_dict(doc)
    assert rebuilt["label"] == "parabola"
    assert parse_curve(json.dumps(rebuilt)).vector == doc.vector


def test_curve_document_errors():
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_curve("{not json")
    with pytest.raises(DocumentError, match="at least 2"):
        parse_curve(json.dumps({"n": 1, "coeffs": [["1", "2"]]}))
    with pytest.raises(DocumentError, match="label"):
        parse_curve(json.dumps({"n": 2, "coeffs": [["1"], ["2"]], "label": 7}))
    with pytest.raises(DocumentError, match="JSON object"):
        parse_curve(json.dumps([1, 2, 3]))


def test_matrix_roundtrip():
    m = PolyMatrix([[p(1, 0, 1), p(0)], [p(0, Fraction(1, 2)), p(3)]])
    doc = matrix_to_dict(m)
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert dict_to_matrix(doc) == m
    bad = dict(doc)
    bad["rows"] = 3
    with pytest.raises(DocumentError, match="shape"):
        dict_to_matrix(bad)


def test_rational_matrix_roundtrip():
    rows = ((Fraction(1, 2), Fraction(0)), (Fraction(-3), Fraction(1)))
    lists = rational_matrix_to_lists(rows)
    assert lists == [["1/2", "0"], ["-3", "1"]]
    assert lists_to_rational_matrix(lists) == rows
    with pytest.raises(DocumentError, match="ragged"):
        lists_to_rational_matrix([["1", "2"], ["3"]])
    # a string row would otherwise be read character by character
    for row in ("10", {}, True, None, -1, 1.5):
        with pytest.raises(DocumentError, match="list of rows"):
            lists_to_rational_matrix([["1", "0"], row])


def test_group_roundtrip():
    g = GroupElement([[0, -1], [1, 0]], Fraction(1, 3))
    doc = group_to_dict(g)
    assert doc == {"matrix": [["0", "-1"], ["1", "0"]], "shift": "1/3"}
    assert dict_to_group(doc) == g
    with pytest.raises(DocumentError, match="determinant"):
        dict_to_group({"matrix": [["2", "0"], ["0", "1"]], "shift": "0"})


def test_result_document_roundtrip():
    doc = ResultDocument(
        kind="bezout",
        payload={"degree": 3},
        metadata={"pairing": "1"},
    )
    text = doc.to_json()
    assert text.endswith("\n")
    again = ResultDocument.from_json(text)
    assert again == doc
    # canonical serialization is stable
    assert again.to_json() == text


def test_result_document_errors():
    with pytest.raises(DocumentError, match="unknown result kind"):
        ResultDocument.from_dict({"kind": "mystery", "payload": {}, "metadata": {}})
    with pytest.raises(DocumentError, match="must be objects"):
        ResultDocument.from_dict({"kind": "frame", "payload": [], "metadata": {}})
    with pytest.raises(DocumentError, match="invalid JSON"):
        ResultDocument.from_json("][")


def test_param_list():
    assert parse_param_list("0, 1, -1/2") == [0, 1, Fraction(-1, 2)]
    with pytest.raises(DocumentError, match="empty"):
        parse_param_list(" , ")
    with pytest.raises(DocumentError, match="not an exact rational"):
        parse_param_list("0.5")


def test_projection():
    assert parse_projection("0,2", 3) == (0, 2)
    with pytest.raises(DocumentError, match="two axes"):
        parse_projection("0", 3)
    with pytest.raises(DocumentError, match="integers"):
        parse_projection("x,y", 3)
    with pytest.raises(DocumentError, match="integers"):
        parse_projection("\u0661,0", 3)
    with pytest.raises(DocumentError, match="distinct"):
        parse_projection("1,1", 3)
    with pytest.raises(DocumentError, match="in range"):
        parse_projection("0,3", 3)


# Round trips of every result kind, over large and negative rationals.

_POLY = polynomials_up_to(4)


def _vectors(n):
    return st.lists(_POLY, min_size=n, max_size=n).map(PolyVector)


def _poly_matrices(n):
    return st.lists(
        st.lists(_POLY, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(PolyMatrix)


def _rational_matrices(nrows, ncols):
    row = st.lists(coefficients.map(Fraction), min_size=ncols, max_size=ncols).map(tuple)
    return st.lists(row, min_size=nrows, max_size=nrows).map(tuple)


@st.composite
def _groups(draw, n):
    """Determinant-one matrices: a diagonal (a, 1/a, 1, ...) times shears."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    a = Fraction(draw(coefficients.filter(bool)))
    rows[0][0], rows[1][1] = a, 1 / a
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        lam = Fraction(draw(coefficients))
        rows[i] = [x + lam * y for x, y in zip(rows[i], rows[j])]
    return GroupElement(rows, Fraction(draw(coefficients)))


def _json(obj):
    return json.loads(json.dumps(obj))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(_vectors))
def test_vector_json_roundtrip(v):
    assert dict_to_vector(_json(vector_to_dict(v))) == v


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(_poly_matrices))
def test_matrix_json_roundtrip(m):
    assert dict_to_matrix(_json(matrix_to_dict(m))) == m


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(_groups))
def test_group_json_roundtrip(g):
    assert dict_to_group(_json(group_to_dict(g))) == g


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: _rational_matrices(*shape)
))
def test_rational_matrix_json_roundtrip(rows):
    assert lists_to_rational_matrix(_json(rational_matrix_to_lists(rows))) == rows


# Each kind's payload in the command line's layout, and how to read it back.
_READERS = {
    "frame": lambda q: (
        dict_to_matrix(q["matrix"]), dict_to_group(q["section"]),
        dict_to_vector(q["canonical_tangent"]), q["bezout_degree"],
    ),
    "completion": lambda q: (dict_to_matrix(q["matrix"]), q["bezout_degree"]),
    "bezout": lambda q: (dict_to_vector(q["vector"]), q["degree"]),
    "mubasis": lambda q: (
        [dict_to_vector(e) for e in q["elements"]], parse_rational(q["scale"]),
    ),
    "section": lambda q: dict_to_group({"matrix": q["matrix"], "shift": q["shift"]}),
    "canonical": lambda q: (dict_to_vector(q["vector"]), dict_to_group(q["section"])),
    "sylvester": lambda q: (
        lists_to_rational_matrix(q["matrix"]), q["pivot_cols"], q["nonpivot_cols"],
        q["basic_nonpivot"], lists_to_rational_matrix(q["reduced"]),
    ),
}


@st.composite
def _results(draw):
    """A result kind, its document, and the objects its payload holds."""
    kind = draw(st.sampled_from(sorted(_READERS)))
    n = draw(st.integers(2, 3))
    degree = st.integers(0, 40)
    indices = st.lists(st.integers(0, 60), max_size=6)
    if kind == "frame":
        objects = (draw(_poly_matrices(n)), draw(_groups(n)), draw(_vectors(n)), draw(degree))
        payload = {
            "matrix": matrix_to_dict(objects[0]), "section": group_to_dict(objects[1]),
            "canonical_tangent": vector_to_dict(objects[2]), "bezout_degree": objects[3],
        }
    elif kind == "completion":
        objects = (draw(_poly_matrices(n)), draw(degree))
        payload = {"matrix": matrix_to_dict(objects[0]), "bezout_degree": objects[1]}
    elif kind == "bezout":
        objects = (draw(_vectors(n)), draw(degree))
        payload = {"vector": vector_to_dict(objects[0]), "degree": objects[1]}
    elif kind == "mubasis":
        objects = ([draw(_vectors(n)) for _ in range(n - 1)], Fraction(draw(coefficients)))
        payload = {
            "elements": [vector_to_dict(u) for u in objects[0]],
            "scale": format_rational(objects[1]),
        }
    elif kind == "section":
        objects = draw(_groups(n))
        payload = group_to_dict(objects)
    elif kind == "canonical":
        objects = (draw(_vectors(n)), draw(_groups(n)))
        payload = {"vector": vector_to_dict(objects[0]), "section": group_to_dict(objects[1])}
    else:
        objects = (
            draw(_rational_matrices(n, 2 * n)), draw(indices), draw(indices),
            draw(indices), draw(_rational_matrices(n, 2 * n)),
        )
        payload = {
            "matrix": rational_matrix_to_lists(objects[0]), "pivot_cols": objects[1],
            "nonpivot_cols": objects[2], "basic_nonpivot": objects[3],
            "reduced": rational_matrix_to_lists(objects[4]),
        }
    curve = CurveDocument(draw(_vectors(n)), draw(st.none() | st.text(max_size=8)))
    payload["input"] = curve_to_dict(curve)
    metadata = {"degree": draw(degree), "determinant": "1"}
    return ResultDocument(kind, payload, metadata), objects, curve


def test_every_result_kind_has_a_reader():
    assert set(_READERS) == RESULT_KINDS - {"verify"}


@settings(max_examples=50, deadline=None)
@given(_results())
def test_result_document_json_roundtrip(case):
    doc, objects, curve = case
    text = doc.to_json()
    again = ResultDocument.from_json(text)
    assert again == doc
    assert again.to_json() == text
    assert _READERS[doc.kind](again.payload) == objects
    assert parse_curve_dict(again.payload["input"]) == curve


def _io_values(n):
    """A strategy for each io type of the payload table, in dimension n."""
    return {
        "polynomial matrix": _poly_matrices(n),
        "vector": _vectors(n),
        "list of vectors": st.lists(_vectors(n), max_size=3).map(tuple),
        "group": _groups(n),
        "rational": coefficients.map(Fraction),
        "rational matrix": _rational_matrices(n, 2 * n),
        "integer": st.integers(-(2**80), 2**80),
        "index list": st.lists(st.integers(0, 60), max_size=6).map(tuple),
    }


@st.composite
def _payload_fields(draw):
    """A result kind and objects for its table fields; an optional one or not."""
    kind = draw(st.sampled_from(sorted(PAYLOADS)))
    values = _io_values(draw(st.integers(2, 3)))
    return kind, {
        name: draw(values[io_type])
        for name, io_type in PAYLOADS[kind].items()
        if (kind, name) not in OPTIONAL or draw(st.booleans())
    }


@settings(max_examples=80, deadline=None)
@given(_payload_fields())
def test_payload_fields_json_roundtrip(case):
    kind, fields = case
    read = read_payload(kind, _json(write_payload(kind, fields)))
    assert read == fields
    assert list(read) == list(fields)  # table order
