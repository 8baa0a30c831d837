"""Seeded end-to-end benchmark of the affine-frames command line.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client in this process sends requests one
at a time, with no threads (a closed loop): each request is one call to
``affine_frames.cli.main(argv)`` with ``--in``/``--out`` files, so it pays
for argument parsing, file I/O, JSON, the math and serialization, as a
command-line user does.  Interpreter start is measured apart, as ``setup_s``.

A run is a fixed number of rounds of seeded requests (``workloads.py``),
sized so that it takes about ``--seconds`` at the commit that added this
benchmark.  ``--trace 0`` times one pass and reports the end-to-end metrics.
``--trace 1`` runs one round untraced, then the same round with span
recorders around every layer's public functions (``spans.py``), and reports
the per-layer metrics.

Times are reported at a nominal CPU speed.  The shared host's speed changes
by tens of percent within milliseconds and by up to a factor of two within
minutes, and every request slows or speeds up with it, so a fixed
calibration loop runs between requests and inside them, and each time is
rescaled by the loop times measured around and inside it (see
``CALIBRATION_NS``).  Raw wall times are kept in the results file.

Every request is checked: its exit code, ``ok`` in every ``verify`` output,
its budget, and the sha256 of what it wrote, against ``digests.json`` where
that file has the seed, and against any identical earlier request.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, with every request, go to
``bench/results/``.  ``--write-spec`` rewrites ``BENCHMARK.json`` from the
tables below; ``--record-digests N`` records reference digests for seeds
0..N-1 (of ``--workload`` only, when that is given).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"

RUN_SECONDS = 20

WHY = {
    "cli-small": "many small curves (n 2-4, degree 3-8) through frame, verify and plot: work redone in every call (Sylvester data, ranks, gcd, parsing) dominates, so compute-once shows here",
    "dense-complete": "n=3, degree 12/16/20, coefficients in [-9, 9]: ratlin elimination on the Sylvester matrix and the degree-search oracle dominate, so fraction-free elimination shows here",
    "wide-mubasis": "n=7 and 8, degree n+1: outer_product and PolyMatrix.determinant dominate; n=7 takes the Bareiss path and n=8 the cofactor one, so dropping cofactor shows here",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("frame_ms.p50", "ms", "lower", 0.25),
    ("frame_ms.tail", "ms", "lower", 0.25),
    ("verify_ms.p50", "ms", "lower", 0.25),
    ("verify_ms.tail", "ms", "lower", 0.25),
    ("complete_ms.p50", "ms", "lower", 0.25),
    ("complete_ms.tail", "ms", "lower", 0.25),
    ("mubasis_ms.p50", "ms", "lower", 0.25),
    ("mubasis_ms.tail", "ms", "lower", 0.25),
    ("bezout_ms.p50", "ms", "lower", 0.25),
    ("plot_ms.p50", "ms", "lower", 0.25),
    ("reject_ms.p50", "ms", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer self time, in ms per request, summed over these span names.
LAYER_TIMES = {
    "ratlin.eliminate_ms": ("ratlin.rref_with_transform", "ratlin.rref", "ratlin.rank",
                            "ratlin.det", "ratlin.inverse"),
    "sylvester.build_ms": ("sylvester.build",),
    "bezout.minimal_bezout_ms": ("bezout.minimal_bezout",),
    "bezout.mu_basis_ms": ("bezout.mu_basis",),
    "bezout.degree_search_ms": ("bezout.degree_search",),
    "vectors.determinant_ms": ("vectors.determinant",),
    "vectors.outer_product_ms": ("vectors.outer_product",),
    "equivariance.section_ms": ("equivariance.section", "equivariance.pivot_profile"),
    "frames.validate_curve_ms": ("frames.validate_curve",),
    "frames.moving_frame_ms": ("frames.moving_frame",),
    "completion.minimal_completion_ms": ("completion.minimal_completion",),
    "completion.verify_completion_ms": ("completion.verify_completion",),
    "poly.gcd_ms": ("poly.gcd",),
    "groups.apply_ms": ("groups.apply",),
    "io.parse_ms": ("io.parse",),
    "io.serialize_ms": ("io.serialize",),
    "cli.self_ms": ("cli.main",),
    "svg.render_ms": ("svg.render",),
}

# Calls per request of one span name.
LAYER_CALLS = {
    "ratlin.rref_with_transform.calls": "ratlin.rref_with_transform",
    "ratlin.rank.calls": "ratlin.rank",
    "sylvester.build.calls": "sylvester.build",
    "bezout.degree_search.calls": "bezout.degree_search",
    "vectors.determinant.calls": "vectors.determinant",
    "vectors.require_regular.calls": "vectors.require_regular",
    "equivariance.pivot_profile.calls": "equivariance.pivot_profile",
    "poly.gcd.calls": "poly.gcd",
}

PER_LAYER = (
    *((name, "ms") for name in LAYER_TIMES),
    *((name, "count") for name in LAYER_CALLS),
    ("ratlin.max_bits", "bits"),
    ("sylvester.cells", "count"),
    ("io.out_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)

# Times each expected rejection runs in the timed pass.  A rejection takes
# 2-4 ms, too short for the calibration to follow the CPU's speed within it,
# so its time is the median of these back-to-back runs.  Traced runs make
# each request once, so that calls per request stay true.
REJECT_REPEATS = 5
# Seconds one request may take before it counts as failed.  The slowest
# request at the commit that added this benchmark takes under 5 s.
BUDGET_S = {"cli-small": 10.0, "dense-complete": 40.0, "wide-mubasis": 40.0}
# Seconds one round of each workload takes at the commit that added this
# benchmark (2-core x86_64, Python 3.11).  A run does round(seconds / this)
# rounds, at least one: a fixed amount of work, so the commits compared
# measure the same inputs.
ROUND_S = {"cli-small": 12.0, "dense-complete": 12.5, "wide-mubasis": 9.0}
# Rounds in each pass of a traced run; fixed so that counts repeat exactly.
TRACE_ROUNDS = 1
# Hex digits of each output's sha256 kept in digests.json.
DIGEST_CHARS = 8
# No request starts after this many seconds, so a run always ends in time.
DEADLINE_S = 140.0
# Interpreter starts timed for setup_s, after one untimed start; each start
# has this many calibration samples just before it and just after it, and
# this many seconds before it counts as hung.
SETUP_REPEATS = 25
SETUP_CALIBRATIONS = 3
SETUP_BUDGET_S = 60.0
# Nanoseconds calibration_ns() takes at the nominal speed.  Each time is
# multiplied by CALIBRATION_NS over the mean loop time measured around and
# during it: just before, every CALIBRATION_EVERY_S of CPU time inside, and
# just after (and the one before that when this makes fewer than three).
# On a 2-core VM the speed changes within tens of milliseconds: 40 repeats of
# an n=7 mubasis request spread (IQR over median) 0.21-0.43 raw, 0.08-0.13
# rescaled by the median of samples 0.1 s apart, and 0.06-0.09 rescaled by
# the mean of samples 5 ms apart.  The program cannot change the loop, so
# the rescaling keeps every difference between two commits.
CALIBRATION_NS = 500_000
CALIBRATION_EVERY_S = 0.005
# The per-request sum of span self times must match the untraced request
# time within this share (checked on the median request and on the total).
ACCOUNTING_TOLERANCE = 0.25
NOTE = ("Every layer runs on the client's one thread: no layer waits for another "
        "or retries, so no wait time or retry count is reported.")
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from affine_frames import cli, io; "
    "io.parse_curve(open(sys.argv[2], encoding='utf-8').read())"
)


def calibration_ns() -> int:
    """Nanoseconds for a fixed piece of Fraction arithmetic."""
    began = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i * i - 7, 3 * i + 1)
    return time.perf_counter_ns() - began


class Calibrator:
    """Calibration samples between requests and, on a CPU-time timer, inside them.

    ``spent_ns`` is the time the samples took; a request's time excludes it.
    """

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0
        self.sample()

    def sample(self, *_signal) -> None:
        began = time.perf_counter_ns()
        self.samples.append(calibration_ns())
        self.spent_ns += time.perf_counter_ns() - began

    @contextlib.contextmanager
    def ticking(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def nominal(self, ns: float, first: int) -> float:
        """``ns`` at nominal speed, from the samples since ``first`` (at least three)."""
        window = self.samples[first:] if len(self.samples) - first >= 3 else self.samples[-3:]
        return ns * CALIBRATION_NS / statistics.fmean(window)


class BudgetExceeded(BaseException):
    """Raised from the interval timer; not an Exception, so cli.main lets it pass."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


def output_digest(exit_code, out_bytes: bytes, err_bytes: bytes) -> str:
    """sha256 over everything a request leaves behind."""
    return hashlib.sha256(
        f"{exit_code}\n".encode() + out_bytes + b"\0" + err_bytes
    ).hexdigest()


def judge(request, exit_code, out_bytes: bytes, digest: str, expected: str | None) -> list[str]:
    """Problems with one request's outcome; empty when it is correct."""
    if exit_code is None:
        return ["over budget"]
    problems = []
    if exit_code != request.expect_exit:
        problems.append(f"exit {exit_code}, expected {request.expect_exit}")
    if request.command == "verify" and exit_code == 0:
        try:
            ok = json.loads(out_bytes)["metadata"]["ok"] is True
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            problems.append("verify does not report ok: true")
    if expected is not None and not digest.startswith(expected):
        problems.append("output digest differs")
    return problems


def call(cli, request, workdir: Path, budget_s: float, cal: Calibrator) -> dict:
    """One CLI request under a budget, with calibrations around and inside it."""
    out_path = workdir / request.outfile
    out_path.unlink(missing_ok=True)
    err = io.StringIO()
    exit_code = None
    first = len(cal.samples) - 1
    spent = cal.spent_ns
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    began = time.perf_counter_ns()
    try:
        try:
            with cal.ticking(), contextlib.redirect_stderr(err):
                exit_code = cli.main(request.argv(str(workdir)))
        finally:
            elapsed_ns = time.perf_counter_ns() - began - (cal.spent_ns - spent)
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        exit_code = None
    cal.sample()
    out_bytes = out_path.read_bytes() if out_path.exists() else b""
    return {
        "kind": request.kind,
        "command": request.command,
        "in": request.infile,
        "n": request.n,
        "d": request.d,
        "bits": request.bits,
        "exit": exit_code,
        "ms": elapsed_ns / 1e6,
        "nominal_ms": cal.nominal(elapsed_ns, first) / 1e6,
        "out_bytes": len(out_bytes),
        "digest": output_digest(exit_code, out_bytes, err.getvalue().encode()),
        "_out": out_bytes,
    }


class Pass:
    """The checked records of one pass."""

    def __init__(self):
        self.records: list[dict] = []
        self.cut = False


def run_pass(cli, plan, workdir: Path, budget_s: float, deadline: float,
             reference: list[str] | None, cal: Calibrator, recorder=None,
             repeats: int = 1) -> Pass:
    """Every request of the plan in order, one at a time.

    A request's output must match ``reference`` at its position when that
    is given, and must match the output of any identical request made
    earlier in the pass.  An expected rejection runs ``repeats`` times back
    to back, every run checked, and its times are the medians of the runs.
    """
    result = Pass()
    seen: dict[tuple, str] = {}
    for index, request in enumerate(plan.requests):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            result.cut = True
            break
        if recorder is not None:
            recorder.request = index
        runs = [call(cli, request, workdir, min(budget_s, remaining), cal)
                for _ in range(repeats if request.kind == "reject" else 1)]
        record = runs[0]
        key = (request.command, request.infile, request.extra)
        expected = seen.setdefault(key, record["digest"])
        if reference is not None and index < len(reference):
            expected = reference[index]
        record["index"] = index
        record["problems"] = sorted({
            problem for r in runs
            for problem in judge(request, r["exit"], r.pop("_out"), r["digest"], expected)
        })
        if len(runs) > 1:
            record["repeats"] = len(runs)
            if all(r["exit"] is not None for r in runs):
                for time_key in ("ms", "nominal_ms"):
                    record[time_key] = statistics.median(r[time_key] for r in runs)
            else:
                record["exit"] = None
        result.records.append(record)
    return result


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the 11th largest.

    With fewer than twenty samples that would fall below the median, so the
    maximum is reported instead, as percentile 100.
    """
    n = len(values)
    if n < 20:
        return max(values), 100.0, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def setup_seconds(document: Path, cal: Calibrator) -> dict[str, list[float]]:
    """Seconds of fresh interpreters that import the CLI and parse one document.

    The parent waits in a blocking ``waitpid``, so each time ends when the
    child does (``subprocess.run`` with a timeout polls in steps of up to
    50 ms, which would round the times up to those steps).  Each start is
    also rescaled to nominal speed by calibration samples taken just before
    and just after it; both lists are returned, raw under ``ms``.
    """
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(document)]
    times: dict[str, list[float]] = {"ms": [], "nominal_ms": []}
    for repeat in range(SETUP_REPEATS + 1):
        for _ in range(SETUP_CALIBRATIONS):
            cal.sample()
        first = len(cal.samples) - SETUP_CALIBRATIONS
        began = time.perf_counter_ns()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        signal.setitimer(signal.ITIMER_REAL, SETUP_BUDGET_S)
        try:
            code = child.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if child.returncode is None:
                child.kill()
                child.wait()
        elapsed_ns = time.perf_counter_ns() - began
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        for _ in range(SETUP_CALIBRATIONS):
            cal.sample()
        if repeat:
            times["ms"].append(elapsed_ns / 1e9)
            times["nominal_ms"].append(cal.nominal(elapsed_ns, first) / 1e9)
    return times


def end_to_end(timed: Pass, setup: dict[str, list[float]], key: str) -> tuple[dict, dict]:
    """Metric values from the ``key`` times, and each tail's percentile and count."""
    by_kind: dict[str, list[float]] = {}
    for r in timed.records:
        if r["exit"] is not None:
            by_kind.setdefault(r["kind"], []).append(r[key])
    values = {"setup_s": statistics.median(setup[key])}
    tails = {}
    for name, _, _, _ in END_TO_END:
        kind, _, stat = name.partition("_ms.")
        if not stat:
            continue
        samples = by_kind.get(kind)
        if not samples:
            continue
        if stat == "p50":
            values[name] = statistics.median(samples)
        else:
            values[name], p, n = tail(samples)
            tails[name] = {"percentile": p, "samples": n}
    busy_ms = sum(sum(samples) for samples in by_kind.values())
    values["requests_per_s"] = sum(map(len, by_kind.values())) / busy_ms * 1000
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, tails


def per_layer(spans_list, untraced: Pass, traced: Pass) -> tuple[dict, dict, dict]:
    """Per-layer metrics, a per-span summary, and the accounting check.

    A span's time is rescaled to nominal speed as its request's time was.
    """
    from spans import NAME, RATLIN, REQUEST, VALUE, self_times

    count = len(traced.records)
    scale = [r["nominal_ms"] / r["ms"] for r in traced.records]
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    per_request = [0.0] * count
    bits = cells = 0
    for span, own_ns in zip(spans_list, self_times(spans_list)):
        name, ms = span[NAME], own_ns / 1e6 * scale[span[REQUEST]]
        self_ms[name] = self_ms.get(name, 0.0) + ms
        calls[name] = calls.get(name, 0) + 1
        per_request[span[REQUEST]] += ms
        if name in RATLIN:
            bits = max(bits, span[VALUE] or 0)
        if name == "sylvester.build":
            cells += span[VALUE] or 0
    values = {
        name: sum(self_ms.get(s, 0.0) for s in names) / count
        for name, names in LAYER_TIMES.items()
    }
    values.update({name: calls.get(s, 0) / count for name, s in LAYER_CALLS.items()})
    values["ratlin.max_bits"] = bits
    values["sylvester.cells"] = cells / count
    values["io.out_bytes"] = sum(r["out_bytes"] for r in traced.records) / count
    untraced_ms = [r["nominal_ms"] for r in untraced.records]
    values["trace.overhead_frac"] = sum(per_request) / sum(untraced_ms) - 1
    ratios = [traced_ms / ms for traced_ms, ms in zip(per_request, untraced_ms)]
    checked = (statistics.median(ratios), sum(per_request) / sum(untraced_ms))
    accounting = {
        "tolerance": ACCOUNTING_TOLERANCE,
        "median_request_ratio": checked[0],
        "total_ratio": checked[1],
        "ok": all(abs(x - 1) <= ACCOUNTING_TOLERANCE for x in checked),
    }
    summary = {
        name: {"calls": calls[name], "self_ms": self_ms[name]} for name in sorted(calls)
    }
    return values, summary, accounting


def write_documents(rnd, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in rnd.documents.items():
        (workdir / name).write_bytes(data)


def load_reference(workload: str, seed: int) -> list[str] | None:
    """Recorded digest prefixes of a seed's requests, in plan order."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    joined = table.get(workload, {}).get(str(seed))
    if joined is None:
        return None
    return [joined[i:i + DIGEST_CHARS] for i in range(0, len(joined), DIGEST_CHARS)]


def commit_hash() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "affine_frames").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def failures(*passes: Pass) -> tuple[int, int, list[dict]]:
    records = [r for p in passes for r in p.records]
    bad = [r for r in records if r["problems"]]
    return len(records), len(bad), bad


def run(args) -> int:
    import spans
    import workloads
    from affine_frames import cli

    rounds = TRACE_ROUNDS if args.trace else rounds_for(args.workload, args.seconds)
    plan = workloads.generate(args.workload, args.seed, rounds)
    workdir = WORK / f"{args.workload}-{args.seed}"
    write_documents(plan, workdir)
    warm = workloads.warmup()
    write_documents(warm, WORK / "warmup")
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.perf_counter() + DEADLINE_S
    budget = BUDGET_S[args.workload]
    reference = load_reference(args.workload, args.seed)
    cal = Calibrator()
    setup = {} if args.trace else setup_seconds(workdir / plan.requests[0].infile, cal)
    warmup = run_pass(cli, warm, WORK / "warmup", budget, deadline, None, cal)
    gc.collect()
    env = {
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "requests": len(plan.requests),
        "params": plan.params,
        "budget_s": budget,
        "digest_reference": "digests.json" if reference else None,
    }
    results = {"environment": env, "note": NOTE}
    if not args.trace:
        timed = run_pass(cli, plan, workdir, budget, deadline, reference, cal,
                         repeats=REJECT_REPEATS)
        passes = (warmup, timed)
        values, tails = end_to_end(timed, setup, "nominal_ms")
        results.update(raw_metrics=end_to_end(timed, setup, "ms")[0], tails=tails,
                       setup_s_samples=setup, requests=timed.records)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        extra = {name: f"p{t['percentile']:.4g} of {t['samples']}" for name, t in tails.items()}
        checks_ok = not timed.cut
    else:
        untraced = run_pass(cli, plan, workdir, budget, deadline, reference, cal)
        recorder = spans.Recorder(excluded=cal)
        recorder.install()
        try:
            traced = run_pass(cli, plan, workdir, budget, deadline,
                              [r["digest"] for r in untraced.records], cal, recorder)
        finally:
            recorder.uninstall()
        passes = (warmup, untraced, traced)
        values, summary, accounting = per_layer(recorder.spans, untraced, traced)
        results.update(accounting=accounting, span_summary=summary,
                       requests=traced.records, untraced_requests=untraced.records)
        units = dict(PER_LAYER)
        extra = {}
        checks_ok = accounting["ok"] and not (untraced.cut or traced.cut)
        write_spans(recorder.spans, args)
    attempted, failed, bad = failures(*passes)
    correct = failed == 0 and checks_ok and set(values) == set(units)
    results.update(correct=correct, attempted=attempted, failed=failed,
                   failed_frac=failed / attempted, metrics=values)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"python={env['python']} nproc={env['nproc']} commit={env['commit']} "
          f"source={env['source_sha256'][:12]}")
    for name, value in values.items():
        print(f"{name:36s} {value:14.4f} {units[name]:6s} {extra.get(name, '')}")
    print(f"{'failed_frac':36s} {failed / attempted:14.4f} ratio  ({failed} of {attempted})")
    for record in bad[:10]:
        print(f"FAILED {record['command']} {record['in']}: {'; '.join(record['problems'])}")
    if args.trace:
        print(f"accounting: {accounting}")
    print(f"# {NOTE}")
    print(f"# results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


def write_spans(spans_list, args) -> None:
    from spans import END, NAME, PARENT, REQUEST, START, VALUE

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, s in enumerate(spans_list):
            handle.write(json.dumps({
                "id": index, "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                "parent": s[PARENT], "request": s[REQUEST], "value": s[VALUE],
            }) + "\n")


def record_digests(count: int, only: str | None) -> int:
    """Reference digests of a default-length run, seeds 0..count-1.

    Every workload is recorded, or only ``only`` when given; the others keep
    their recorded digests.
    """
    import workloads
    from affine_frames import cli

    signal.signal(signal.SIGALRM, _on_alarm)
    table: dict[str, dict[str, str]] = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for workload in (only,) if only else workloads.WORKLOADS:
        table[workload] = {}
        for seed in range(count):
            plan = workloads.generate(workload, seed, rounds_for(workload, RUN_SECONDS))
            workdir = WORK / f"{workload}-{seed}"
            write_documents(plan, workdir)
            one = run_pass(cli, plan, workdir, BUDGET_S[workload],
                           time.perf_counter() + 600, None, Calibrator())
            bad = [r for r in one.records if r["problems"]]
            if bad:
                print(f"{workload} seed {seed}: {bad[0]['in']}: {bad[0]['problems']}",
                      file=sys.stderr)
                return 1
            joined = "".join(r["digest"][:DIGEST_CHARS] for r in one.records)
            table[workload][str(seed)] = joined
            print(f"{workload} seed {seed}: {len(one.records)} requests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def write_spec() -> int:
    import workloads

    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-digests", type=int, metavar="N")
    args = parser.parse_args(argv)
    if not (SRC / "affine_frames" / "cli.py").is_file():
        print(f"bench: no affine_frames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_spec:
        return write_spec()
    if args.record_digests is not None:
        return record_digests(args.record_digests, args.workload)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
