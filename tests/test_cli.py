"""End-to-end command-line runs via main()."""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affine_frames import (
    bezout, cli, completion, equivariance, frames, groups, poly, ratlin, sylvester,
    vectors,
)
from affine_frames.cli import main
from affine_frames.io import (
    PAYLOADS, DocumentError, format_rational, parse_curve_dict, read_payload, write_payload,
)
from conftest import random_generic_curve

QUINTIC = {
    "n": 3,
    "coeffs": [
        ["0", "1", "0", "2/3", "1/4", "1/5"],
        ["0", "2", "0", "1", "1/4", "2/5"],
        ["0", "3", "5/2", "4/3", "1/4", "3/5"],
    ],
    "label": "quintic",
}

SEXTIC = {
    "n": 3,
    "coeffs": [["1", "0", "0", "0", "0", "0", "1"], ["0", "0", "0", "1"], ["0", "1"]],
}

QUARTIC = {
    "n": 3,
    "coeffs": [
        ["1", "0", "2", "1", "1"],
        ["2", "0", "3", "1", "2"],
        ["3", "5", "4", "1", "3"],
    ],
}

# n = 7, degree 8, with denominators: its µ-basis certificate clears them.
WIDE_RATIONAL = {
    "n": 7,
    "coeffs": [
        ["1/2", "-5", "3", "-8", "-7", "8", "-6", "2", "1"],
        ["-8", "7/3", "-3", "-8", "-7", "4", "4", "-7", "-2"],
        ["-7", "8", "4/5", "-8", "9", "-6", "-2", "9", "-8"],
        ["9", "9", "3", "-8/7", "-2", "-8", "8", "-5", "0"],
        ["4", "-5", "8", "-6", "9/2", "0", "8", "-4", "-6"],
        ["9", "9", "-3", "2", "-6", "8/3", "-7", "9", "-8"],
        ["-3", "6", "8", "4", "1", "5", "9/4", "5", "2"],
    ],
}

PLANAR = {"n": 2, "coeffs": [["0", "1"], ["0", "0", "0", "1"]]}

# A cubic in dimension 3: not generic, since its degree does not exceed n.
LOW_DEGREE = {"n": 3, "coeffs": [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]}

# The README's `plot --params 0,1,-1/2 --project 0,1` SVG of the quintic's frame.
QUINTIC_PLOT_SHA256 = "fb25cc85ffe33f6c69df9e83dab5451102f834a307ddd99ff7e1915d75a77e7b"


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(tmp_path, capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frame_golden(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    outfile = tmp_path / "frame.json"
    code, out, err = run(
        tmp_path, capsys, ["frame", "--in", infile, "--out", str(outfile)]
    )
    assert code == 0, err
    doc = json.loads(outfile.read_text(encoding="utf-8"))
    assert doc["kind"] == "frame"
    entries = doc["payload"]["matrix"]["entries"]
    assert entries[0][0] == ["1", "0", "2", "1", "1"]
    assert entries[0][2] == ["0", "16/27"]
    assert entries[1][1] == ["27/40"]
    assert entries[2][1] == ["243/80"]
    assert entries[2][2] == ["-113/27", "-65/9"]
    assert doc["payload"]["section"]["shift"] == "1/3"
    assert doc["payload"]["bezout_degree"] == 1
    assert doc["metadata"]["degree"] == 5
    assert doc["metadata"]["determinant"] == "1"
    assert doc["payload"]["input"]["label"] == "quintic"


def test_frame_checks_the_tangent_once(tmp_path, capsys, monkeypatch):
    """One coprimality check and one pivot profile of the tangent, no rank,
    and no Euclid: the modular certificate decides the coprime tangent."""
    calls = {"is_coprime": 0, "poly_gcd": 0, "pivot_profile": 0, "rank": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    coprime = counting("is_coprime", vectors.PolyVector.is_coprime)
    monkeypatch.setattr(vectors.PolyVector, "is_coprime", coprime)
    monkeypatch.setattr(vectors, "poly_gcd", counting("poly_gcd", vectors.poly_gcd))
    profile = counting("pivot_profile", equivariance.pivot_profile)
    for module in (vectors, frames, equivariance, cli):
        if hasattr(module, "pivot_profile"):
            monkeypatch.setattr(module, "pivot_profile", profile)
    monkeypatch.setattr(ratlin, "rank", counting("rank", ratlin.rank))
    infile = write(tmp_path / "curve.json", QUINTIC)
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 0, err
    assert calls == {"is_coprime": 1, "poly_gcd": 0, "pivot_profile": 1, "rank": 0}


def test_frame_deterministic(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["frame", "--in", infile, "--out", str(out1)]) == 0
    assert main(["frame", "--in", infile, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_frame_to_stdout(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 0
    assert json.loads(out)["kind"] == "frame"


def test_frame_rejects_low_degree(tmp_path, capsys):
    infile = write(tmp_path / "cubic.json", LOW_DEGREE)
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "curve rejected"
    assert body["failures"] == ["degree does not exceed the dimension"]


def test_rejects_decimal_coefficient(tmp_path, capsys):
    infile = write(
        tmp_path / "bad.json", {"n": 2, "coeffs": [["1.5"], ["0", "1"]]}
    )
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 2
    assert "not an exact rational" in json.loads(err)["error"]


def test_missing_input_file(tmp_path, capsys):
    code, out, err = run(
        tmp_path, capsys, ["frame", "--in", str(tmp_path / "absent.json")]
    )
    assert code == 2
    assert "cannot read input" in json.loads(err)["error"]


def _os_error(path, mode):
    try:
        open(path, mode, encoding="utf-8").close()
    except OSError as exc:
        return str(exc)
    raise AssertionError(f"{path} opened")


@pytest.mark.parametrize(
    "kind", ["curve", "write", "document", "regularity", "read"]
)
def test_rejection_bytes(tmp_path, capsys, kind):
    """Each kind of rejection writes exactly one JSON object to stderr and
    exits 2; only a rejected curve carries ``failures``."""
    quintic = write(tmp_path / "quintic.json", QUINTIC)
    missing = str(tmp_path / "missing" / "out.json")
    cases = {
        "curve": (
            ["frame", "--in", write(tmp_path / "cubic.json", LOW_DEGREE)],
            {"error": "curve rejected",
             "failures": ["degree does not exceed the dimension"]},
        ),
        "write": (
            ["frame", "--in", quintic, "--out", missing],
            {"error": "cannot write output: " + _os_error(missing, "w")},
        ),
        "document": (
            ["frame", "--in", write(
                tmp_path / "decimal.json", {"n": 2, "coeffs": [["1.5"], ["0", "1"]]}
            )],
            {"error": "not an exact rational: '1.5'"},
        ),
        "regularity": (
            # (t - 1) * (1, t, t^3)
            ["complete", "--in", write(tmp_path / "planted.json", {
                "n": 3,
                "coeffs": [["-1", "1"], ["0", "-1", "1"], ["0", "0", "0", "-1", "1"]],
            })],
            {"error": "components share a nonconstant factor"},
        ),
        "read": (
            ["frame", "--in", missing],
            {"error": "cannot read input: " + _os_error(missing, "r")},
        ),
    }
    argv, body = cases[kind]
    code, out, err = run(tmp_path, capsys, argv)
    assert (code, out) == (2, "")
    assert err == json.dumps(body, sort_keys=True) + "\n"


def test_rejects_non_utf8_input(tmp_path, capsys):
    infile = tmp_path / "curve.json"
    infile.write_bytes(b'{"n": 2, "coeffs": [["\xff"], ["1"]]}')
    for argv in (["frame", "--in", str(infile)], ["verify", "--in", str(infile)]):
        code, out, err = run(tmp_path, capsys, argv)
        assert code == 2
        assert out == ""
        assert "cannot read input" in json.loads(err)["error"]


def test_unwritable_output_is_a_write_error(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "dir" / "out")
    for argv in (
        ["frame", "--in", infile, "--out", missing],
        ["plot", "--in", str(frame_path), "--params", "0", "--project", "0,1",
         "--out", missing],
    ):
        code, out, err = run(tmp_path, capsys, argv)
        assert code == 2
        assert out == ""
        message = json.loads(err)["error"]
        assert message.startswith("cannot write output: ")
        assert missing in message


_DIGITS = "1" * 5001  # over the interpreter's 4300-digit int-string limit


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "coeffs": [["0", "%s"], ["0", "0", "1"]]}' % _DIGITS,
        '{"n": 2, "coeffs": [["0", "1/%s"], ["0", "0", "1"]]}' % _DIGITS,
        '{"n": %s, "coeffs": [["0", "1"], ["0", "0", "1"]]}' % _DIGITS,
    ],
    ids=["numerator", "denominator", "json-n"],
)
def test_oversize_integers_are_rejected(tmp_path, capsys, text):
    infile = tmp_path / "curve.json"
    infile.write_text(text, encoding="utf-8")
    code, out, err = run(tmp_path, capsys, ["frame", "--in", str(infile)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "error" in json.loads(err)


def test_oversize_projection_axis_is_rejected(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame = str(tmp_path / "frame.json")
    assert main(["frame", "--in", infile, "--out", frame]) == 0
    code, out, err = run(
        tmp_path, capsys,
        ["plot", "--in", frame, "--params", "0", "--project", f"0,{_DIGITS}"],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "projection axes must be distinct and in range"}


@pytest.mark.parametrize("command", ["bezout", "complete"])
def test_result_beyond_the_digit_limit_is_rejected(tmp_path, capsys, command):
    # v = (1 + c t, t^2) has the Bezout vector (1 - c t, c^2): c has 2200
    # digits, so the input parses and c^2 is past the 4300-digit limit.
    c = "7" * 2200
    infile = write(tmp_path / "vec.json", {"n": 2, "coeffs": [["1", c], ["0", "0", "1"]]})
    outfile = tmp_path / "out.json"
    code, out, err = run(
        tmp_path, capsys, [command, "--in", infile, "--out", str(outfile)]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("result too long to write")
    assert not outfile.exists()


def test_complete_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    code, out, err = run(tmp_path, capsys, ["complete", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "completion"
    assert doc["metadata"]["degree"] == 9
    assert doc["payload"]["bezout_degree"] == 3
    assert doc["payload"]["matrix"]["entries"][2][1] == ["1"]


def test_bezout_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    code, out, err = run(tmp_path, capsys, ["bezout", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    # the zero component serializes as an empty coefficient list
    assert doc["payload"]["vector"]["coeffs"] == [
        ["1"], ["0", "0", "0", "-1"], []
    ]
    assert doc["payload"]["degree"] == 3


def test_mubasis_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    code, out, err = run(tmp_path, capsys, ["mubasis", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["degrees"] == [2, 4]
    assert doc["metadata"]["degree_sum"] == 6
    assert doc["payload"]["scale"] == "-1"
    assert doc["payload"]["elements"][0]["coeffs"] == [[], ["-1"], ["0", "0", "1"]]


def test_section_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", QUARTIC)
    code, out, err = run(tmp_path, capsys, ["section", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["shift"] == "1/3"
    assert doc["payload"]["matrix"] == [
        ["-31/27", "-1/3", "1/5"],
        ["-53/27", "-5/3", "2/5"],
        ["20/9", "-3", "3/5"],
    ]
    assert doc["metadata"]["profile"] == {
        "indices": [1, 3, 4],
        "k": 2,
        "det_vbar": "5",
    }


def test_canonical_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", QUARTIC)
    code, out, err = run(tmp_path, capsys, ["canonical", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["vector"]["coeffs"] == [
        ["-1/3", "1"],
        ["-1/27", "0", "0", "1"],
        ["325/81", "0", "25/3", "0", "5"],
    ]
    assert doc["metadata"]["degree"] == 4
    assert doc["metadata"]["profile"] == {
        "indices": [1, 3, 4], "k": 2, "det_vbar": "5"
    }


def test_sylvester_dump(tmp_path, capsys):
    infile = write(
        tmp_path / "vec.json",
        {
            "n": 3,
            "coeffs": [
                ["2", "1", "0", "0", "1"],
                ["3", "0", "1", "0", "1"],
                ["6", "0", "0", "2", "1"],
            ],
        },
    )
    code, out, err = run(
        tmp_path, capsys, ["sylvester", "--in", infile, "--dump-pivots"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"] == {"rows": 9, "cols": 15, "rank": 9}
    assert doc["payload"]["pivot_cols"] == [1, 2, 3, 4, 5, 6, 7, 10, 13]
    assert doc["payload"]["basic_nonpivot"] == [8, 9]
    assert doc["payload"]["matrix"][0] == [
        "2", "3", "6", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"
    ]
    assert "reduced" in doc["payload"]
    code, out, err = run(tmp_path, capsys, ["sylvester", "--in", infile])
    assert "reduced" not in json.loads(out)["payload"]


def test_sylvester_dump_eliminates_once(tmp_path, capsys, monkeypatch):
    """`sylvester --dump-pivots` and its verify each run one forward pass and
    read every reduced column, `reduced` included, off it."""
    calls = {"echelon": 0, "rref": 0}
    rref = ratlin.rref

    class CountingEchelon(ratlin.Echelon):
        def __init__(self, rows):
            calls["echelon"] += 1
            super().__init__(rows)

    def counting_rref(rows):
        calls["rref"] += 1
        return rref(rows)

    monkeypatch.setattr(ratlin, "Echelon", CountingEchelon)
    monkeypatch.setattr(ratlin, "rref", counting_rref)
    infile = write(tmp_path / "vec.json", QUARTIC)
    outfile = str(tmp_path / "sylvester.json")
    assert main(["sylvester", "--dump-pivots", "--in", infile, "--out", outfile]) == 0
    assert "reduced" in json.loads(Path(outfile).read_text(encoding="utf-8"))["payload"]
    assert calls == {"echelon": 1, "rref": 0}
    assert main(["verify", "--in", outfile]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["ok"] is True
    assert calls == {"echelon": 2, "rref": 0}


@pytest.mark.parametrize(
    "command", ["frame", "complete", "bezout", "mubasis", "section", "canonical"]
)
def test_verify_accepts_every_result(tmp_path, capsys, command):
    source = QUINTIC if command == "frame" else QUARTIC
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path, capsys, ["verify", "--in", str(result_path)]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "verify"
    assert doc["metadata"]["ok"] is True
    assert all(c["passed"] for c in doc["metadata"]["checks"])


def test_verify_sylvester_result(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    result_path = tmp_path / "syl.json"
    assert main(["sylvester", "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 0
    names = [c["name"] for c in json.loads(out)["metadata"]["checks"]]
    assert "rank_is_full" in names
    assert "nonpivot_indices_periodic" in names


def test_verify_sylvester_reads_the_stored_pivot_data(tmp_path, capsys):
    """The structural checks read the stored index lists: pivot data cut
    short fail all three, not only the comparison with the rebuilt data."""
    curve = {"n": 3, "coeffs": [["0", "1", "0", "1"], ["1", "0", "2"], ["0", "0", "1", "1"]]}
    result_path = tmp_path / "syl.json"
    assert main(["sylvester", "--in", write(tmp_path / "in.json", curve),
                 "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    doc["payload"].update(pivot_cols=[1, 2], nonpivot_cols=[6], basic_nonpivot=[6])
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    checks = {c["name"]: c["passed"] for c in json.loads(out)["metadata"]["checks"]}
    assert checks == {
        "matrix_reproducible": True,
        "pivots_reproducible": False,
        "nonpivot_indices_periodic": False,
        "rank_is_full": False,
        "basic_nonpivot_count": False,
    }


def test_sylvester_of_the_zero_vector_is_rejected(tmp_path, capsys):
    """Computing and verifying refuse a zero vector with one message, the
    one ``sylvester.integer_system`` raises."""
    zero = write(tmp_path / "zero.json", {"n": 3, "coeffs": [["0"], ["0"], ["0"]]})
    code, out, err = run(tmp_path, capsys, ["sylvester", "--in", zero])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "vector is zero"}
    result_path = tmp_path / "syl.json"
    assert main(["sylvester", "--in", write(tmp_path / "in.json", QUARTIC),
                 "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    _zero_input(doc)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "vector is zero"}


def test_verify_detects_tampering(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", QUARTIC)
    result_path = tmp_path / "section.json"
    assert main(["section", "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    doc["payload"]["shift"] = "2/3"
    result_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2
    verdict = json.loads(out)
    assert verdict["metadata"]["ok"] is False
    failed = [c["name"] for c in verdict["metadata"]["checks"] if not c["passed"]]
    assert failed == ["section_reproducible"]


def _double(value: str) -> str:
    return format_rational(2 * Fraction(value))


def _doubled_first_row(doc):
    matrix = doc["payload"]["matrix"]
    matrix[0] = [_double(x) for x in matrix[0]]


def _dropped_last_column(doc):
    doc["payload"]["matrix"] = [row[:-1] for row in doc["payload"]["matrix"]]


@pytest.mark.parametrize(
    "damage", [_doubled_first_row, _dropped_last_column], ids=["det-2", "non-square"]
)
def test_verify_section_refuses_a_matrix_outside_the_group(tmp_path, capsys, damage):
    """A stored section matrix of determinant 2, or not square, is reported
    as not unimodular, and nothing is compared with a recomputed section."""
    infile = write(tmp_path / "vec.json", QUARTIC)
    result_path = tmp_path / "section.json"
    assert main(["section", "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    damage(doc)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    verdict = json.loads(out)["metadata"]
    assert verdict["ok"] is False
    assert verdict["checks"] == [{"name": "matrix_is_unimodular", "passed": False}]


def test_verify_rejects_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"kind": "verify", "payload": {}, "metadata": {}}),
        encoding="utf-8",
    )
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(bad)])
    assert code == 2
    assert "cannot verify" in json.loads(err)["error"]


def test_verify_rejects_a_document_that_is_not_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(bad)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "result document must be a JSON object"}


def test_run_command_rejects_an_unknown_command():
    with pytest.raises(DocumentError, match="unknown command: shear"):
        cli.run_command("shear", parse_curve_dict(QUARTIC))


def test_plot_three_dimensional(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    svg_path = tmp_path / "plot.svg"
    code, out, err = run(
        tmp_path,
        capsys,
        [
            "plot",
            "--in", str(frame_path),
            "--params", "0,1,-1/2",
            "--project", "0,1",
            "--out", str(svg_path),
        ],
    )
    assert code == 0, err
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.count("<line ") == 9  # three columns at three parameters
    assert text.count("<polyline ") == 1
    assert "frame-col-2" in text
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == QUINTIC_PLOT_SHA256
    # floats only appear in the drawing; rerunning is byte-identical
    svg2 = tmp_path / "plot2.svg"
    assert main(
        [
            "plot",
            "--in", str(frame_path),
            "--params", "0,1,-1/2",
            "--project", "0,1",
            "--out", str(svg2),
        ]
    ) == 0
    capsys.readouterr()
    assert svg2.read_bytes() == svg_path.read_bytes()


@pytest.mark.parametrize(
    "curve, params",
    [
        # a 324-digit coefficient: sampled values overflow a float
        ({"n": 2, "coeffs": [["0", "1" + "0" * 323, "0", "1"], ["0", "0", "1"]]},
         "0"),
        # a 400-digit parameter: its base point overflows a float
        (QUINTIC, "1" + "0" * 399),
        # every value finite, but the extent from -1.5e308 to 1.5e308 is not
        ({"n": 2, "coeffs": [["0", "15" + "0" * 307, "0", "1"], ["0", "0", "1"]]},
         "0"),
    ],
    ids=["huge-coefficient", "huge-parameter", "extent-overflow"],
)
def test_plot_refuses_a_drawing_beyond_floats(tmp_path, capsys, curve, params):
    infile = write(tmp_path / "curve.json", curve)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(frame_path), "--params", params, "--project", "0,1"],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "drawing is not finite: a coordinate or its extent exceeds "
        "the float range"
    }


def test_plot_params_may_start_with_a_negative_value(tmp_path, capsys):
    """``--params -1/2,0`` is a value, drawn as ``--params=-1/2,0`` is."""
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    svgs = set()
    for argv in (
        ["--params=-1/2,0", "--project", "0,1"],
        ["--params", "-1/2,0", "--project", "0,1"],
        ["--project", "0,1", "--params", "-1/2,0"],
    ):
        code, out, err = run(tmp_path, capsys, ["plot", "--in", str(frame_path), *argv])
        assert code == 0, err
        assert out.startswith("<svg ")
        svgs.add(out)
    assert len(svgs) == 1


@pytest.mark.parametrize("command, curve", [("frame", QUINTIC), ("complete", QUARTIC)])
def test_determinant_only_in_verify(tmp_path, capsys, monkeypatch, command, curve):
    """A result is built without a determinant or an outer product (the
    µ-basis scale comes from its leading-vector certificate); its verify
    takes exactly one determinant, the first column against one outer
    product of the others, and no polynomial determinant."""
    calls = {"determinant": 0, "outer_product": 0}
    determinant, outer_product = vectors.PolyMatrix.determinant, vectors.outer_product

    def counting_determinant(self):
        calls["determinant"] += 1
        return determinant(self)

    def counting_outer_product(vectors_):
        calls["outer_product"] += 1
        return outer_product(vectors_)

    monkeypatch.setattr(vectors.PolyMatrix, "determinant", counting_determinant)
    # bezout, which builds the µ-basis, no longer imports outer_product.
    assert not hasattr(bezout, "outer_product")
    for module in (vectors, completion, cli):
        monkeypatch.setattr(module, "outer_product", counting_outer_product)
    infile = write(tmp_path / "curve.json", curve)
    result = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result)]) == 0
    assert calls == {"determinant": 0, "outer_product": 0}
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result)])
    assert code == 0, err
    assert json.loads(out)["metadata"]["ok"] is True
    assert calls == {"determinant": 0, "outer_product": 1}


@pytest.mark.parametrize("command, curve", [
    ("complete", QUARTIC), ("bezout", QUARTIC), ("mubasis", QUARTIC),
    ("complete", WIDE_RATIONAL), ("bezout", WIDE_RATIONAL), ("mubasis", WIDE_RATIONAL),
])
def test_compute_never_builds_the_fraction_sylvester_matrix(
    tmp_path, monkeypatch, command, curve
):
    """``complete``, ``bezout`` and ``mubasis`` eliminate the integer rows
    of L A and never lay A out in Fractions; ``sylvester`` does."""
    built = []
    matrix = sylvester.SylvesterSystem.matrix

    def counting_matrix(system):
        built.append(system.n)
        return matrix.func(system)

    monkeypatch.setattr(sylvester.SylvesterSystem, "matrix", property(counting_matrix))
    infile = write(tmp_path / "curve.json", curve)
    builds = []
    build = sylvester.build_sylvester

    def counting_build(v):
        builds.append(v.dim)
        return build(v)

    for module in (sylvester, bezout, completion, cli):
        monkeypatch.setattr(module, "build_sylvester", counting_build)
    assert main([command, "--in", infile, "--out", str(tmp_path / "out.json")]) == 0
    assert builds and built == []
    assert main(["sylvester", "--in", infile, "--out", str(tmp_path / "s.json")]) == 0
    assert built == [curve["n"]]


def test_frame_verify_inverts_the_section_once(tmp_path, capsys, monkeypatch):
    """A frame's verify inverts its stored section once, with no second
    determinant check, and acts once, on the matrix: the stored canonical
    tangent is checked against the acted first column, on the tangent's
    pivot profile, the one profile the verify reads."""
    calls = {"inverse": 0, "group": 0, "profile": 0, "apply": []}
    inverse, group_init = ratlin.inverse, groups.GroupElement.__init__
    profile, apply = vectors.pivot_profile, groups.GroupElement.apply

    def counting_inverse(rows):
        calls["inverse"] += 1
        return inverse(rows)

    def counting_init(self, matrix, shift=0):
        calls["group"] += 1
        group_init(self, matrix, shift)

    def counting_profile(v):
        calls["profile"] += 1
        return profile(v)

    def recording_apply(self, target):
        calls["apply"].append(type(target))
        return apply(self, target)

    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    monkeypatch.setattr(ratlin, "inverse", counting_inverse)
    monkeypatch.setattr(groups.GroupElement, "__init__", counting_init)
    monkeypatch.setattr(groups.GroupElement, "apply", recording_apply)
    for name, module in list(sys.modules.items()):
        if name.startswith("affine_frames.") and vars(module).get("pivot_profile") is profile:
            monkeypatch.setattr(module, "pivot_profile", counting_profile)
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(frame_path)])
    assert code == 0, err
    assert json.loads(out)["metadata"]["ok"] is True
    # The stored section is the one element built; its inverse is not
    # checked again, and no section is built.
    assert calls == {"inverse": 1, "group": 1, "profile": 1, "apply": [vectors.PolyMatrix]}


def _parent_is_section(tangent, g, w):
    """The section check of the frame verify that acted twice, kept as a
    reference: g maps the stored w to the tangent, and w has the canonical
    shape on its own profile."""
    w = vectors.PolyVector(w.components)
    return (
        g.dim == tangent.dim and w.dim == tangent.dim and g.apply(w) == tangent
        and not equivariance.canonical_shape_violations(w)
    )


def _parent_verify_frame(doc, fields):
    """The frame verify that acted twice, kept as a reference in public
    calls: the section check, ``verify_completion`` of m against the
    tangent, and, only if the section check holds and m's first column is
    the tangent, ``verify_completion`` of ``M = g^-1 . m`` against its own
    first column w.  A_w and A_u, for ``u = L^-1 . v``, have the same
    pivots on every column prefix, so this is the certificate that the
    frame verify reads with the oracle run on u."""
    tangent = frames.validate_curve(doc.vector)
    yield "input_is_generic_curve", not isinstance(tangent, frames.CurveRejection)
    if isinstance(tangent, frames.CurveRejection):
        return
    stored = frames.FrameResult(**fields)
    is_section = _parent_is_section(tangent, stored.section, stored.canonical_tangent)
    report = completion.verify_completion(stored.matrix, tangent)
    if report.first_column_matches and is_section:
        moved = stored.section.inverse().apply(stored.matrix)
        reproducible = completion.verify_completion(moved, moved.column(0)).reproducible
    else:
        reproducible = False
    yield "matrix_reproducible", reproducible and (
        stored.bezout_degree == report.minimal_degree - int(tangent.degree)
    )
    yield "first_column_is_tangent", report.first_column_matches
    yield "determinant_is_one", report.determinant_one
    yield "degree_is_minimal", report.minimal


def _shear(rng, n):
    """A determinant-one shear of size n, with a shift or without."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    rows[i][j] = rng.choice((-2, -1, 1, 2))
    return groups.GroupElement(rows, rng.choice((0, 0, 1, Fraction(-1, 2))))


def _tangent_moved(rng, fields):
    w = fields["canonical_tangent"]
    return fields | {"canonical_tangent": _shear(rng, w.dim).apply(w)}


def _tangent_shifted(rng, fields):
    w = fields["canonical_tangent"]
    shift = groups.GroupElement(ratlin.identity(w.dim), rng.choice((1, -1, Fraction(1, 3))))
    return fields | {"canonical_tangent": shift.apply(w)}


def _first_column_changed(rng, fields):
    first, second, *later = fields["matrix"].columns()
    first = rng.choice((first + second, first + first))
    return fields | {"matrix": vectors.PolyMatrix.from_columns([first, second, *later])}


def _later_column_doubled(rng, fields):
    columns = fields["matrix"].columns()
    j = rng.randrange(1, len(columns))
    columns[j] = columns[j] + columns[j]
    return fields | {"matrix": vectors.PolyMatrix.from_columns(columns)}


def _section_sheared(rng, fields):
    g = fields["section"]
    return fields | {"section": g.compose(_shear(rng, g.dim))}


def _section_and_tangent_moved(rng, fields):
    """g h with h^-1 w: the section still maps the stored w to the tangent,
    and w's shape is then checked on the tangent's profile."""
    g, w = fields["section"], fields["canonical_tangent"]
    h = _shear(rng, g.dim)
    return fields | {"section": g.compose(h), "canonical_tangent": h.inverse().apply(w)}


def _section_of_another_size(rng, fields):
    n = fields["section"].dim
    return fields | {"section": _shear(rng, rng.choice((n - 1, n + 1)) if n > 2 else 3)}


_FRAME_DAMAGES = {
    "stored": lambda rng, fields: fields,
    "tangent-moved": _tangent_moved,
    "tangent-shifted": _tangent_shifted,
    "first-column-changed": _first_column_changed,
    "later-column-doubled": _later_column_doubled,
    "section-sheared": _section_sheared,
    "section-and-tangent-moved": _section_and_tangent_moved,
    "section-of-another-size": _section_of_another_size,
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.sampled_from(sorted(_FRAME_DAMAGES)))
def test_frame_verify_matches_the_two_action_reference(n, seed, damage):
    """The frame verify that acts once gives the check list and the section
    verdict of the reference that acted twice, on seeded frames (n = 2..4)
    and damaged copies: the stored tangent moved by a shear or a shift, the
    first column changed, a later column doubled, the section sheared (with
    and without the tangent moved back to match), and a section of another
    size."""
    rng = random.Random(seed)
    curve = random_generic_curve(rng, n, max_degree=n + 3)
    doc = parse_curve_dict({"n": n, "coeffs": [
        [format_rational(c) for c in component.coeffs] for component in curve
    ]})
    fields, _ = cli.COMMANDS["frame"].compute(doc, {})
    stored = read_payload("frame", write_payload("frame", _FRAME_DAMAGES[damage](rng, fields)))
    checks = list(cli._verify_frame(doc, stored))
    assert checks == list(_parent_verify_frame(doc, stored))
    assert all(passed for _, passed in checks) == (damage == "stored")
    # The section verdict, which only a first column equal to the tangent
    # shows in the checks.
    tangent = frames.validate_curve(doc.vector)
    g, w = stored["section"], stored["canonical_tangent"]
    verdict, _ = frames.verify_frame(stored["matrix"], tangent, g, w)
    assert verdict == _parent_is_section(tangent, g, w)


def test_frame_inverts_no_matrix(tmp_path, capsys, monkeypatch):
    """The section and the canonical tangent come from one integer pass,
    which solves on the selected columns and inverts no matrix."""
    calls = {"ratlin": 0, "group": 0}
    ratlin_inverse, group_inverse = ratlin.inverse, groups.GroupElement.inverse

    def counting_ratlin(rows):
        calls["ratlin"] += 1
        return ratlin_inverse(rows)

    def counting_group(self):
        calls["group"] += 1
        return group_inverse(self)

    monkeypatch.setattr(ratlin, "inverse", counting_ratlin)
    monkeypatch.setattr(groups.GroupElement, "inverse", counting_group)
    infile = write(tmp_path / "curve.json", QUINTIC)
    assert main(["frame", "--in", infile, "--out", str(tmp_path / "frame.json")]) == 0
    assert calls == {"ratlin": 0, "group": 0}


def test_section_skips_the_canonical_vector(tmp_path, capsys, monkeypatch):
    """`section` shifts the vector once, row by row, and solves and inverts
    nothing; its verify maps the vector by the stored section's inverse, one
    inversion and one more shift of each component."""
    calls = {"inverse": 0, "shift": 0, "solve": 0}
    inverse, shift, solve = ratlin.inverse, poly.taylor_shift, ratlin.Echelon.solve

    def counting_inverse(rows):
        calls["inverse"] += 1
        return inverse(rows)

    def counting_shift(*args):
        calls["shift"] += 1
        return shift(*args)

    def counting_solve(self, column):
        calls["solve"] += 1
        return solve(self, column)

    monkeypatch.setattr(ratlin, "inverse", counting_inverse)
    monkeypatch.setattr(ratlin.Echelon, "solve", counting_solve)
    for name, module in list(sys.modules.items()):
        if name.startswith("affine_frames.") and vars(module).get("taylor_shift") is shift:
            monkeypatch.setattr(module, "taylor_shift", counting_shift)
    infile = write(tmp_path / "vec.json", QUARTIC)
    outfile = str(tmp_path / "section.json")
    assert main(["section", "--in", infile, "--out", outfile]) == 0
    assert calls == {"inverse": 0, "shift": 3, "solve": 0}
    assert main(["verify", "--in", outfile]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["ok"] is True
    assert calls == {"inverse": 1, "shift": 6, "solve": 0}


@pytest.mark.parametrize("command, source, key", [
    ("section", QUARTIC, None),
    ("canonical", QUARTIC, "section"),
    ("frame", QUINTIC, "section"),
])
@pytest.mark.parametrize("altered", [False, True], ids=["stored", "shifted"])
def test_verify_builds_no_section(tmp_path, capsys, monkeypatch, command, source,
                                  key, altered):
    """``verify`` checks a stored section by its normal form: none of the
    section constructions runs, for the stored section or one shifted by 1."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    if altered:
        section = doc["payload"][key] if key else doc["payload"]
        section["shift"] = _bump(section["shift"])
        write(result_path, doc)
    originals = (equivariance.section, equivariance.section_and_canonical,
                 equivariance.linear_section, equivariance.shift_section)
    for original in originals:
        _forbid_everywhere(monkeypatch, original)
    # The compute paths' own bindings in cli are replaced too.
    assert (cli.section, cli.section_and_canonical) != originals[:2]
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == (2 if altered else 0), err
    assert json.loads(out)["metadata"]["ok"] is not altered


@pytest.mark.parametrize("command, source", [
    ("bezout", QUARTIC),
    ("mubasis", QUARTIC),
    ("complete", QUARTIC),
    ("mubasis", WIDE_RATIONAL),
    ("frame", QUINTIC),
])
def test_verify_computes_each_pairing_once(tmp_path, capsys, monkeypatch, command, source):
    """No ``verify`` pairs the same two vectors twice: the pairing of the
    input with a stored Bezout vector or syzygy, or of a completion's first
    column with the outer product of the others, serves every check."""
    infile = write(tmp_path / "in.json", source)
    result = str(tmp_path / "result.json")
    assert main([command, "--in", infile, "--out", result]) == 0
    pairs = []
    original = vectors.PolyVector.dot

    def pairing(self, other):
        pairs.append((self, other))
        return original(self, other)

    monkeypatch.setattr(vectors.PolyVector, "dot", pairing)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", result])
    assert code == 0, err
    assert pairs and len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("coeffs, error", [
    (None, None),  # the stored canonical vector itself
    ([["0"], ["0"], ["0"]], "vector is zero"),
    # a shared factor and dependent components: the dependence is refused
    ([["0", "1"], ["0", "2"], ["0", "3"]], "components are linearly dependent"),
    ([["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
     "components share a nonconstant factor"),
    ([["1", "1"], ["2", "2"], ["1", "0", "0", "1"]], "components are linearly dependent"),
    ([["1"], ["0", "1"], ["0", "0", "1"]], "degree is below the dimension"),
])
def test_verify_canonical_profiles_the_stored_vector_once(tmp_path, capsys, monkeypatch,
                                                          coeffs, error):
    """A canonical ``verify`` reads the stored vector's pivot profile once,
    for its regularity and its shape, and refuses an irregular stored vector
    with the message rebuilding its section gave."""
    infile = write(tmp_path / "in.json", QUARTIC)
    result_path = tmp_path / "canonical.json"
    assert main(["canonical", "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    if coeffs is not None:
        doc["payload"]["vector"] = {"coeffs": coeffs}
    write(result_path, doc)
    stored = parse_curve_dict({"n": 3, "coeffs": doc["payload"]["vector"]["coeffs"]}).vector
    profiled = []
    original = vectors.pivot_profile

    def profiling(v):
        profiled.append(v)
        return original(v)

    for module in (vectors, equivariance, cli):
        monkeypatch.setattr(module, "pivot_profile", profiling, raising=False)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert profiled.count(stored) == 1
    if error is None:
        assert code == 0 and json.loads(out)["metadata"]["ok"] is True
    else:
        assert (code, out, err) == (2, "", json.dumps({"error": error}) + "\n")


@pytest.mark.parametrize("command, source, key, check", [
    ("section", QUARTIC, None, "section_reproducible"),
    ("canonical", QUARTIC, "section", "vector_reproducible"),
    ("frame", QUINTIC, "section", "matrix_reproducible"),
])
@pytest.mark.parametrize("size", [2, 4])
def test_verify_a_section_of_another_size(tmp_path, capsys, command, source, key,
                                          check, size):
    """A determinant-one section of size 2 or 4 stored for an n = 3 input:
    only the reproducibility check fails, with no dimension error."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    shear = [[int(i == j or (i, j) == (0, 1)) for j in range(size)] for i in range(size)]
    stored = write_payload("section", vars(groups.GroupElement(shear)))
    (doc["payload"][key] if key else doc["payload"]).update(stored)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    metadata = json.loads(out)["metadata"]
    assert metadata["ok"] is False
    assert [c["name"] for c in metadata["checks"] if not c["passed"]] == [check]


def _bump(value: str) -> str:
    return format_rational(Fraction(value) + 1)


def _bump_shift(doc):
    section = doc["payload"]["section"]
    section["shift"] = _bump(section["shift"])


def _bump_canonical_tangent(doc):
    row = doc["payload"]["canonical_tangent"]["coeffs"][0]
    row[0] = _bump(row[0])


def _bump_int(key):
    def damage(doc):
        doc["payload"][key] += 1

    return damage


def _bump_reduced(doc):
    row = doc["payload"]["reduced"][0]
    row[0] = _bump(row[0])


@pytest.mark.parametrize(
    "argv, source, damage, check",
    [
        (["frame"], QUINTIC, _bump_shift, "matrix_reproducible"),
        (["frame"], QUINTIC, _bump_canonical_tangent, "matrix_reproducible"),
        (["frame"], QUINTIC, _bump_int("bezout_degree"), "matrix_reproducible"),
        (["canonical"], QUARTIC, _bump_shift, "vector_reproducible"),
        (["complete"], QUARTIC, _bump_int("bezout_degree"), "matrix_reproducible"),
        (["bezout"], QUARTIC, _bump_int("degree"), "vector_reproducible"),
        (["sylvester", "--dump-pivots"], SEXTIC, _bump_reduced, "pivots_reproducible"),
    ],
    ids=[
        "frame-section", "frame-canonical_tangent", "frame-bezout_degree",
        "canonical-section", "completion-bezout_degree", "bezout-degree",
        "sylvester-reduced",
    ],
)
def test_verify_checks_every_stored_field(tmp_path, capsys, argv, source, damage, check):
    """A changed field fails its kind's reproducibility check and nothing else."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([*argv, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    damage(doc)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    failed = [c["name"] for c in json.loads(out)["metadata"]["checks"] if not c["passed"]]
    assert failed == [check]


def _double_column_one(doc):
    for row in doc["payload"]["matrix"]["entries"]:
        row[1] = [_double(c) for c in row[1]]


def _forbid_everywhere(monkeypatch, original):
    """Rebind every name of ``original`` in the package to a function that raises."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"verify called {original.__name__}")

    for name, module in list(sys.modules.items()):
        if name == "affine_frames" or name.startswith("affine_frames."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, forbidden)


# sha256 of each verify output, recorded when verify still rebuilt every
# result; the certificates must give the same bytes.
@pytest.mark.parametrize(
    "command, source, damage, failed, asked, digest",
    [
        ("frame", QUINTIC, None, [], 1,
         "300d0b1a8e527af6841b70fc8fd9a4250e2bdd6f05151c0dfce0449469182ff5"),
        ("complete", QUARTIC, None, [], 1,
         "969ad4b71cd432868c19983a3393eaf1a15bde06f8b0b0ed05f10fc7d8462405"),
        ("bezout", QUARTIC, None, [], 1,
         "75b9ad237dc1d4ddb668c0ea515aedac7ea52dffd2f6764d40e630f33b8781b8"),
        ("mubasis", QUARTIC, None, [], 0,
         "ce3a373c9522e24eae41c8d20633d389ce7e80c3a1e8f8234f8af0b38ee74196"),
        # A determinant of two fails both checks; the degree oracle is not asked.
        ("frame", QUINTIC, _double_column_one,
         ["matrix_reproducible", "determinant_is_one", "degree_is_minimal"], 0,
         "2d5f9ab87e66c8935260fcdad87d5badefb0b7fe6cff21796e7bfbd7791248c0"),
    ],
    ids=["frame", "completion", "bezout", "mubasis", "frame-doubled-column"],
)
def test_verify_runs_no_compute_path(tmp_path, capsys, monkeypatch, command, source,
                                     damage, failed, asked, digest):
    """``verify`` checks a stored result by its certificate: no command's
    compute path runs, and the output bytes are those of rebuilding it."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    if damage is not None:
        doc = json.loads(result_path.read_text(encoding="utf-8"))
        damage(doc)
        write(result_path, doc)
    for original in (frames.moving_frame, completion.minimal_completion,
                     bezout.minimal_bezout, bezout.mu_basis, sylvester.build_sylvester):
        _forbid_everywhere(monkeypatch, original)
    calls = []
    oracle = bezout.bezout_degree_search

    def counting_oracle(v, bound=None):
        calls.append(v)
        return oracle(v, bound)

    for module in (bezout, completion, cli):
        monkeypatch.setattr(module, "bezout_degree_search", counting_oracle)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == (2 if failed else 0), err
    checks = json.loads(out)["metadata"]["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == failed
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert len(calls) == asked


@pytest.mark.parametrize(
    "command, source",
    [("frame", QUINTIC), ("complete", QUARTIC), ("bezout", QUARTIC)],
    ids=["frame", "completion", "bezout"],
)
def test_verify_eliminates_one_sylvester_matrix(tmp_path, capsys, monkeypatch,
                                                command, source):
    """One forward pass over a Sylvester matrix per ``verify``: the oracle,
    bounded by the stored Bezout degree e, gives e and every pivot the
    certificate reads, the frame's included, from a pass of the first
    n(e + 1) columns and L e1 reduced through it.  Those columns are all
    that the column generator lays out of A."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    payload = json.loads(result_path.read_text(encoding="utf-8"))["payload"]
    e = payload.get("bezout_degree", payload.get("degree"))
    passes, reduced, laid_out = [], [], []

    class CountingEchelon(ratlin.Echelon):
        def __init__(self, rows):
            super().__init__(rows)
            passes.append((len(rows), self))

        def reduce(self, column):
            reduced.append(len(column))
            return super().reduce(column)

    columns = sylvester.SylvesterSystem.columns

    def counting_columns(system, blocks):
        for column in columns(system, blocks):
            laid_out.append(len(column))
            yield column

    monkeypatch.setattr(ratlin, "Echelon", CountingEchelon)
    monkeypatch.setattr(sylvester.SylvesterSystem, "columns", counting_columns)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 0, err
    # Both vectors have n = 3 and degree 4, so A has 2 * 4 + 1 rows and 15
    # columns; no other elimination in verify (profiles, determinants,
    # inverses, minors at a point) has more than three rows.
    shapes = [(rows, len(echelon.forward)) for rows, echelon in passes]
    assert [shape for shape in shapes if shape[0] == 9] == [(9, 3 * (e + 1))]
    assert reduced.count(9) == 3 * (e + 1) + 1
    assert all(rows <= 3 for rows, _ in shapes if rows != 9)
    assert laid_out == [9] * (3 * (e + 1)) and 3 * (e + 1) < 15


PLANTED = {"n": 3, "coeffs": [["-1", "1"], ["0", "-1", "1"], ["0", "0", "0", "-1", "1"]]}


@pytest.mark.parametrize("command", ["complete", "bezout", "mubasis"])
def test_verify_refuses_a_vector_with_a_common_factor(tmp_path, capsys, command):
    """A stored result whose input is (t - 1) * (1, t, t^3): the certificate
    refuses the input as rebuilding the result did, with the same message."""
    infile = write(tmp_path / "in.json", QUARTIC)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    doc["payload"]["input"] = PLANTED
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert (code, out) == (2, "")
    assert err == '{"error": "components share a nonconstant factor"}\n'


def test_complete_refuses_a_wide_shared_factor_without_the_euclid(
    tmp_path, capsys, monkeypatch
):
    """A degree-17 vector with 64-bit p/q coefficients times (t - 1): the
    modular gcd lifts to t - 1, which divides every component, so the
    refusal makes no exact Euclid, whose cost grows with these sizes."""
    rng = random.Random(21)
    linear = poly.Polynomial([-1, 1])
    rows = [
        poly.Polynomial(
            Fraction(rng.randint(-(2**64), 2**64), rng.randint(1, 2**64)) for _ in range(18)
        ) * linear
        for _ in range(3)
    ]
    infile = write(tmp_path / "wide.json", {
        "n": 3, "coeffs": [[format_rational(c) for c in row.coeffs] for row in rows],
    })
    calls = []

    def euclid(*polys):
        calls.append(len(polys))
        return poly.poly_gcd(*polys)

    monkeypatch.setattr(vectors, "poly_gcd", euclid)
    code, out, err = run(tmp_path, capsys, ["complete", "--in", infile])
    assert (code, out) == (2, "")
    assert err == '{"error": "components share a nonconstant factor"}\n'
    assert len(calls) == 0


def test_verify_a_mubasis_with_its_last_element_and_scale_doubled(tmp_path, capsys):
    """Still syzygies of the right degrees with a proportional outer
    product; only the normal form, a 1 at each leading column, fails."""
    infile = write(tmp_path / "in.json", QUARTIC)
    result_path = tmp_path / "result.json"
    assert main(["mubasis", "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    payload = doc["payload"]
    payload["elements"][-1]["coeffs"] = [
        [_double(c) for c in row] for row in payload["elements"][-1]["coeffs"]
    ]
    payload["scale"] = _double(payload["scale"])
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    checks = json.loads(out)["metadata"]["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["basis_reproducible"]


def test_verify_a_nonminimal_completion(tmp_path, capsys):
    """A valid completion of more than the least degree: the frame checks
    hold, and the degree oracle, which says the least degree, refuses it."""
    infile = write(tmp_path / "in.json", QUARTIC)
    result_path = tmp_path / "completion.json"
    assert main(["complete", "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    inflated = completion.nonminimal_completion(parse_curve_dict(QUARTIC).vector)
    assert inflated.bezout_degree > doc["payload"]["bezout_degree"]
    doc["payload"].update(write_payload("completion", vars(inflated)))
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    checks = [(c["name"], c["passed"]) for c in json.loads(out)["metadata"]["checks"]]
    assert checks == [
        ("first_column_matches", True),
        ("determinant_is_one", True),
        ("degree_is_minimal", False),
        ("matrix_reproducible", False),
    ]


def test_plot_planar_defaults_axes(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", PLANAR)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path, capsys, ["plot", "--in", str(frame_path), "--params", "0,2"]
    )
    assert code == 0, err
    assert out.count("<line ") == 4  # two columns at two parameters


def test_plot_requires_projection_in_higher_dimension(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path, capsys, ["plot", "--in", str(frame_path), "--params", "0"]
    )
    assert code == 2
    assert "--project is required" in json.loads(err)["error"]


def test_plot_rejects_non_frame_document(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    result_path = tmp_path / "bezout.json"
    assert main(["bezout", "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(result_path), "--params", "0", "--project", "0,1"],
    )
    assert code == 2
    assert "plot expects a frame result" in json.loads(err)["error"]


def test_plot_rejects_non_string_kind(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    doc = json.loads(frame_path.read_text(encoding="utf-8"))
    doc["kind"] = ["frame"]
    write(frame_path, doc)
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(frame_path), "--params", "0", "--project", "0,1"],
    )
    assert code == 2
    assert out == ""
    assert "unknown result kind" in json.loads(err)["error"]


def test_plot_rejects_bad_axes(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(frame_path), "--params", "0", "--project", "0,7"],
    )
    assert code == 2
    assert "axes" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command, source, options",
    [
        ("frame", QUINTIC, {}),
        *((command, QUARTIC, {}) for command in
          ("complete", "bezout", "mubasis", "section", "canonical", "sylvester")),
        ("sylvester", QUARTIC, {"dump_pivots": True}),
    ],
)
def test_compute_returns_the_kinds_table_fields(command, source, options):
    entry = cli.COMMANDS[command]
    fields, _ = entry.compute(parse_curve_dict(source), options)
    expected = list(PAYLOADS[entry.kind])
    if command == "sylvester" and not options:
        expected.remove("reduced")  # written by --dump-pivots only
    assert sorted(fields) == sorted(expected)


def test_command_kinds_match_result_kinds():
    from affine_frames.cli import COMMANDS
    from affine_frames.io import RESULT_KINDS

    kinds = [command.kind for command in COMMANDS.values()]
    assert len(set(kinds)) == len(kinds)
    assert set(kinds) | {"verify"} == RESULT_KINDS


def _empty_elements(doc):
    doc["payload"]["elements"] = []


def _wrong_element_dimension(doc):
    element = doc["payload"]["elements"][0]
    element["n"], element["coeffs"] = 4, element["coeffs"] + [["1"]]


def _planar_input(doc):
    doc["payload"]["input"] = PLANAR


def _nonsquare_matrix(doc):
    matrix = doc["payload"]["matrix"]
    matrix["cols"], matrix["entries"] = 2, [row[:2] for row in matrix["entries"]]


def _short_vector(doc):
    doc["payload"]["vector"] = {"n": 2, "coeffs": [["1"], ["0"]]}


def _scalar_pivot_cols(doc):
    doc["payload"]["pivot_cols"] = 5


def _list_kind(doc):
    doc["kind"] = ["mubasis"]


def _object_kind(doc):
    doc["kind"] = {}


def _scalar_elements(doc):
    doc["payload"]["elements"] = 0


def _zero_column(doc):
    for row in doc["payload"]["matrix"]["entries"]:
        row[1] = []


def _boolean_degree(doc):
    doc["payload"]["degree"] = True


def _zero_input(doc):
    vector = doc["payload"]["input"]
    vector["coeffs"] = [["0"] for _ in vector["coeffs"]]


def _matrix_row(value):
    def damage(doc):
        doc["payload"]["matrix"][1] = value

    return damage


def _low_degree_input_and_garbage_payload(doc):
    """A non-generic curve: its payload must still be read, and refused."""
    doc["payload"]["input"] = LOW_DEGREE
    doc["payload"]["matrix"] = doc["payload"]["section"] = "x"


@pytest.mark.parametrize(
    "command, source, damage, message",
    [
        ("mubasis", SEXTIC, _empty_elements, "elements do not match"),
        ("mubasis", SEXTIC, _wrong_element_dimension, "elements do not match"),
        ("complete", SEXTIC, _planar_input, "matrix does not match"),
        ("frame", QUINTIC, _nonsquare_matrix, "matrix does not match"),
        ("bezout", SEXTIC, _short_vector, "vector does not match"),
        ("sylvester", QUARTIC, _scalar_pivot_cols, "must be a list of integers"),
        ("canonical", QUARTIC, _short_vector, "vector does not match"),
        ("mubasis", SEXTIC, _list_kind, "unknown result kind"),
        ("mubasis", SEXTIC, _object_kind, "unknown result kind"),
        ("mubasis", SEXTIC, _scalar_elements, "elements must be a list"),
        ("complete", SEXTIC, _zero_column, "has a zero column"),
        ("complete", SEXTIC, _zero_input, "vector is zero"),
        ("sylvester", QUARTIC, _zero_input, "vector is zero"),
        *(
            (command, QUARTIC, _matrix_row(value), "must be a list of rows")
            for command in ("section", "sylvester")
            for value in (True, None, -1, 1.5)
        ),
        ("frame", QUINTIC, _zero_column, "has a zero column"),
        ("bezout", QUARTIC, _boolean_degree, "degree must be an integer"),
        ("frame", QUINTIC, _low_degree_input_and_garbage_payload,
         "matrix document must be an object"),
    ],
)
def test_verify_rejects_malformed_document(tmp_path, capsys, command, source,
                                           damage, message):
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    damage(doc)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2
    assert out == ""
    assert message in json.loads(err)["error"]


_DROP = object()
_DAMAGE = (True, None, -1, 1.5, [], {}, "x")


def _fields(obj, path=()):
    """Path of every value inside a JSON object, parents first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _damage_list(doc, rng):
    """Three seeded damages for each field down to depth 3 and for 10 deeper ones.

    A damage replaces the field by one of ``_DAMAGE`` or drops its key.
    """
    fields = list(_fields(doc))
    deep = [f for f in fields if len(f) > 3]
    for path in [f for f in fields if len(f) <= 3] + rng.sample(deep, 10):
        choices = _DAMAGE + ((_DROP,) if isinstance(path[-1], str) else ())
        for value in rng.sample(choices, 3):
            yield path, value
    if "coeffs" in doc["payload"]["input"]:
        yield ("payload", "input", "coeffs"), [["0"]] * 3


def _damaged(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is _DROP:
        del target[key]
    else:
        target[key] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize(
    "command, source",
    [
        ("frame", QUINTIC),
        ("complete", QUARTIC),
        ("bezout", QUARTIC),
        ("mubasis", QUARTIC),
        ("section", QUARTIC),
        ("canonical", QUARTIC),
        ("sylvester", QUARTIC),
        ("verify", QUINTIC),
    ],
)
def test_damaged_documents_never_exit_one(tmp_path, capsys, command, source):
    """Every result kind for the golden quintic's tangent, damaged field by field."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    if command == "verify":
        assert main(["frame", "--in", infile, "--out", str(result_path)]) == 0
        assert main(["verify", "--in", str(result_path), "--out", str(result_path)]) == 0
    else:
        assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    damaged_path = tmp_path / "damaged.json"
    runs = [["verify", "--in", str(damaged_path)]]
    if command == "frame":
        runs.append(["plot", "--in", str(damaged_path), "--params", "0,1",
                     "--project", "0,1"])
    cases = list(_damage_list(doc, random.Random(0)))
    assert len(cases) >= 60
    for path, value in cases:
        write(damaged_path, _damaged(doc, path, value))
        for argv in runs:
            capsys.readouterr()
            code, out, err = run(tmp_path, capsys, argv)
            assert code != 1, (argv[0], path, value, err)


# Help and usage-error output, exit status and parsed options of the
# argument parser on 18 command lines, recorded with COLUMNS=80: help of the
# program and of commands, usage errors, and the abbreviated and joined
# option forms argparse accepts.  Each line is parsed as main parses it, by
# the parser built for its first word.
PARSER_CASES = json.loads(
    (Path(__file__).parent / "data" / "parser_bytes.json").read_text(encoding="utf-8")
)


def _parse(parser, argv):
    """Exit status, stdout, stderr and options of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize(
    "case", PARSER_CASES, ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_parser_output_is_pinned(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = case["argv"]
    assert _parse(cli.build_parser(*argv[:1]), argv) == (
        case["exit"], case["stdout"], case["stderr"], case["namespace"]
    )


PARSER_TOKENS = (
    "-h", "--help", "--in", "--out", "--params", "--params=-1", "--project",
    "--dump-pivots", "--dump", "--i", "--", "--bogus", "stray", "a",
)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(list(cli.SUBCOMMANDS)),
    st.lists(st.sampled_from(PARSER_TOKENS), max_size=6),
)
# An unrecognized argument: the top-level usage, with every command name.
@example("plot", ["--in", "a", "--params", "stray", "--bogus"])
def test_one_subparser_parses_as_the_full_parser(monkeypatch, command, tokens):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, *tokens]
    assert _parse(cli.build_parser(command), argv) == _parse(cli.build_parser(), argv)


def test_a_request_builds_one_subparser(tmp_path, capsys, monkeypatch):
    """A frame request adds only its own subparser, so it constructs two
    parsers; --help adds all nine, ten parsers.  No parent parser is built."""
    added, built = [], []
    add_parser = argparse._SubParsersAction.add_parser
    init = argparse.ArgumentParser.__init__

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    infile = write(tmp_path / "curve.json", QUINTIC)
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 0, err
    assert added == ["frame"] and len(built) == 2
    added.clear()
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert added == list(cli.SUBCOMMANDS) and len(added) == 9
    assert len(built) == 10
