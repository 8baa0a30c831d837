"""Seeded input documents and request lists for the CLI benchmark.

A run is a number of *rounds*.  Each round is the workload's fixed mix of
CLI requests over fresh documents drawn from the seeded generator, so a run
averages over many distinct inputs and its mix of sizes is always whole.
The same workload and seed always give byte-identical documents; the program
under test only ever sees those documents.

Candidates are screened with the library's own admissibility checks
(``validate_curve``, ``require_regular``, ``section``) so that every request
meant to succeed does, and every request meant to be rejected is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from affine_frames import (
    CurveRejection,
    Polynomial,
    PolyVector,
    RegularityError,
    require_regular,
    section,
    validate_curve,
)

WORKLOADS = ("cli-small", "dense-complete", "wide-mubasis")

PLOT_ARGS = ("--params", "0,1,-1/2", "--project", "0,1")

# Per round: cli-small frames four curves in each grid cell and runs the
# vector commands on the tangents of two of them; about one request in ten
# is a non-generic curve that must be rejected.
SMALL_GRID = tuple((n, d) for n in (2, 3, 4) for d in range(n + 1, 9))
CURVES_PER_CELL = 4
TANGENTS_PER_CELL = 2
SMALL_REJECTS = 40
# Per round: dense vectors of these degrees and wide ones of these dimensions.
# The counts put each command's median inside one size (d=16, n=7), among
# several inputs, and leave its maximum on the largest size.
DENSE_DEGREES = (12, 16, 16, 20)
WIDE_DIMS = (7, 7, 7, 8)
HEAVY_REJECTS = 10
PROBES_PER_ROUND = 15

# The golden quintic of the acceptance tests, exactly as the README shows it.
QUINTIC = (
    ("0", "1", "0", "2/3", "1/4", "1/5"),
    ("0", "2", "0", "1", "1/4", "2/5"),
    ("0", "3", "5/2", "4/3", "1/4", "3/5"),
)


@dataclass(frozen=True)
class Request:
    """One CLI call; files are named relative to the work directory."""

    command: str
    infile: str
    outfile: str
    expect_exit: int
    n: int
    d: int
    bits: int  # largest numerator or denominator bit length of the source input
    extra: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        """Metric family: the command, or ``reject`` for an expected exit 2."""
        return "reject" if self.expect_exit == 2 else self.command

    def argv(self, workdir: str) -> list[str]:
        return [
            self.command,
            "--in", f"{workdir}/{self.infile}",
            "--out", f"{workdir}/{self.outfile}",
            *self.extra,
        ]


@dataclass(frozen=True)
class Plan:
    """The documents and the ordered requests of one run."""

    params: dict
    documents: dict[str, bytes]
    requests: tuple[Request, ...]


def _vector(rows) -> PolyVector:
    return PolyVector(Polynomial(Fraction(c) for c in row) for row in rows)


def _bits(rows) -> int:
    return max(
        max(Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
        for row in rows
        for c in row
    )


def _degree(rows) -> int:
    return int(_vector(rows).degree)


def _format(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _document(rows, label: str | None = None) -> bytes:
    obj = {"n": len(rows), "coeffs": [[_format(c) for c in row] for row in rows]}
    if label is not None:
        obj["label"] = label
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _integrate(rows) -> list[list[Fraction]]:
    """Curve through the origin whose tangent has coefficient rows ``rows``."""
    return [[Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(row)] for row in rows]


def _times_linear(rows, root: int) -> list[list[Fraction]]:
    """Multiply every component by ``t - root``."""
    out = []
    for row in rows:
        prod = [Fraction(0)] * (len(row) + 1)
        for i, c in enumerate(row):
            prod[i + 1] += c
            prod[i] -= root * c
        out.append(prod)
    return out


def _is_frameable(curve_rows) -> bool:
    """A generic curve whose tangent has a section, so that ``frame`` succeeds."""
    if isinstance(validate_curve(_vector(curve_rows)), CurveRejection):
        return False
    try:
        section(_vector(curve_rows).derivative())
    except RegularityError:
        return False
    return True


def _is_regular(rows) -> bool:
    try:
        require_regular(_vector(rows))
    except RegularityError:
        return False
    return True


class _Builder:
    def __init__(self):
        self.documents: dict[str, bytes] = {}
        self.sizes: dict[str, tuple[int, int, int]] = {}
        self.requests: list[Request] = []

    def add_document(self, name: str, rows, label=None) -> None:
        self.documents[f"{name}.json"] = _document(rows, label)
        self.sizes[name] = (len(rows), _degree(rows), _bits(rows))

    def request(self, command, source, outfile, expect_exit=0, extra=()) -> None:
        """``command`` on a file; ``source`` names the generated input it derives from."""
        base = source.split(".")[0]
        infile = source if source.endswith(".json") else f"{source}.json"
        self.requests.append(Request(command, infile, outfile, expect_exit,
                                     *self.sizes[base], extra))

    def frame_chain(self, name: str, rows, label=None) -> None:
        """frame, then verify on the frame document, then plot it."""
        self.add_document(name, rows, label)
        self.request("frame", name, f"{name}.frame.json")
        self.request("verify", f"{name}.frame.json", f"{name}.frame.verify.json")
        self.request("plot", f"{name}.frame.json", f"{name}.svg", extra=PLOT_ARGS)

    def vector_chain(self, name: str, command: str, rows) -> None:
        """``command`` on a vector, then verify on its result document."""
        if name not in self.sizes:
            self.add_document(name, rows)
        result = f"{name}.{command}.json"
        self.request(command, name, result)
        self.request("verify", result, f"{name}.{command}.verify.json")

    def reject(self, name: str, command: str, rows) -> None:
        self.add_document(name, rows)
        self.request(command, name, f"{name}.out", expect_exit=2)


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _small_curve(rng: random.Random, n: int, d: int) -> list[list[Fraction]]:
    while True:
        rows = [[_small_rational(rng) for _ in range(d + 1)] for _ in range(n)]
        rows[rng.randrange(n)][d] = Fraction(rng.choice((1, 2, 3, -1, -2)), rng.randint(1, 4))
        if _is_frameable(rows):
            return rows


def _dense_vector(rng: random.Random, n: int, d: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(d + 1)] for _ in range(n)]
        rows[rng.randrange(n)][d] = rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, -1, -2, -3))
        if _is_regular(rows):
            return rows


def _small_reject(rng: random.Random, kind: int) -> list[list[Fraction]]:
    """A non-generic curve that ``frame`` must refuse; three kinds."""
    while True:
        if kind == 0:  # degree does not exceed the dimension
            n = rng.choice((2, 3, 4))
            rows = [[_small_rational(rng) for _ in range(n + 1)] for _ in range(n)]
            rows[0][n] = Fraction(rng.choice((1, 2, -1)))
        elif kind == 1:  # image lies in an affine plane of 3-space
            plane = [[_small_rational(rng) for _ in range(6)] for _ in range(2)]
            a, b, c = (_small_rational(rng) for _ in range(3))
            rows = plane + [[a * x + b * y for x, y in zip(*plane)]]
            rows[2][0] += c
        else:  # tangent vanishes at t = root
            base = [[_small_rational(rng) for _ in range(4)] for _ in range(2)]
            rows = _integrate(_times_linear(base, rng.randint(-2, 2)))
        if isinstance(validate_curve(_vector(rows)), CurveRejection):
            return rows


def _tangent(rows) -> list[list[Fraction]]:
    return [[Fraction(c) * i for i, c in enumerate(row)][1:] for row in rows]


def _cli_small(rng: random.Random, b: _Builder, r: int) -> None:
    b.frame_chain("quintic", QUINTIC, label="quintic")
    for i in range(len(SMALL_GRID) * CURVES_PER_CELL):
        n, d = SMALL_GRID[i % len(SMALL_GRID)]
        rows = _small_curve(rng, n, d)
        b.frame_chain(f"r{r}-curve-{i}", rows)
        if i < TANGENTS_PER_CELL * len(SMALL_GRID):
            for command in ("complete", "bezout", "mubasis"):
                b.vector_chain(f"r{r}-tangent-{i}", command, _tangent(rows))
    for i in range(SMALL_REJECTS):
        b.reject(f"r{r}-reject-{i}", "frame", _small_reject(rng, i % 3))


def _dense_complete(rng: random.Random, b: _Builder, r: int) -> None:
    for i, d in enumerate(DENSE_DEGREES):
        rows = _dense_vector(rng, 3, d)
        b.vector_chain(f"r{r}-dense-{i}-d{d}", "complete", rows)
        b.vector_chain(f"r{r}-dense-{i}-d{d}", "bezout", rows)
    _rejects(rng, b, r, 3, DENSE_DEGREES[0])
    _probes(b, "mubasis")


def _wide_mubasis(rng: random.Random, b: _Builder, r: int) -> None:
    for i, n in enumerate(WIDE_DIMS):
        rows = _dense_vector(rng, n, n + 1)
        b.vector_chain(f"r{r}-wide-{i}-n{n}", "mubasis", rows)
        b.vector_chain(f"r{r}-wide-{i}-n{n}", "complete", rows)
    _rejects(rng, b, r, WIDE_DIMS[0], WIDE_DIMS[0] + 1)
    _probes(b, "bezout")


def _rejects(rng: random.Random, b: _Builder, r: int, n: int, d: int) -> None:
    """Seeded dense vectors times ``t - root``: ``complete`` must refuse them."""
    for i in range(HEAVY_REJECTS):
        rows = _times_linear(_dense_vector(rng, n, d), rng.randint(-2, 2))
        b.reject(f"r{r}-factor-{i}", "complete", rows)


def _probes(b: _Builder, command: str) -> None:
    """The commands outside a heavy workload's focus, on the golden quintic.

    Every workload reports every command's latency.  On the heavy workloads
    the commands they are not about run on this one small fixed input,
    repeated, so those figures stay cheap and steady; they measure the
    per-request fixed costs that every command pays.
    """
    b.add_document("quintic", QUINTIC, label="quintic")
    b.add_document("quintic-tangent", _tangent(QUINTIC))
    for _ in range(PROBES_PER_ROUND):
        b.request("frame", "quintic", "quintic.frame.json")
        b.request("plot", "quintic.frame.json", "quintic.svg", extra=PLOT_ARGS)
        b.request(command, "quintic-tangent", f"quintic-tangent.{command}.json")


_BUILDERS = {
    "cli-small": _cli_small,
    "dense-complete": _dense_complete,
    "wide-mubasis": _wide_mubasis,
}

PARAMS = {
    "cli-small": {"grid": SMALL_GRID, "curves_per_cell": CURVES_PER_CELL,
                  "tangents_per_cell": TANGENTS_PER_CELL, "rejects": SMALL_REJECTS,
                  "coeffs": "p/q with |p| <= 5, 1 <= q <= 4"},
    "dense-complete": {"n": 3, "degrees": DENSE_DEGREES, "rejects": HEAVY_REJECTS,
                       "probes": PROBES_PER_ROUND, "coeffs": "integers in [-9, 9]"},
    "wide-mubasis": {"dims": WIDE_DIMS, "degree": "n + 1", "rejects": HEAVY_REJECTS,
                     "probes": PROBES_PER_ROUND, "coeffs": "integers in [-9, 9]"},
}


def generate(workload: str, seed: int, rounds: int) -> Plan:
    """``rounds`` rounds of ``workload`` for ``seed``, each with fresh inputs.

    The same seed gives the same bytes, and the first k rounds do not depend
    on how many follow.
    """
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder()
    for r in range(rounds):
        _BUILDERS[workload](rng, b, r)
    return Plan(PARAMS[workload], dict(b.documents), tuple(b.requests))


def warmup() -> Plan:
    """Every command once on the golden quintic, to load lazily imported code."""
    b = _Builder()
    b.frame_chain("warm", QUINTIC)
    for command in ("complete", "bezout", "mubasis"):
        b.vector_chain("warm-tangent", command, _tangent(QUINTIC))
    b.reject("warm-reject", "complete", _times_linear(_tangent(QUINTIC), 1))
    return Plan({}, dict(b.documents), tuple(b.requests))
