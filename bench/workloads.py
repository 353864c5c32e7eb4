"""The benchmark's workloads: op lists made from a seed, and exact output checks.

An op is one closed-loop call into splitjac's public API.  Every op has a
check that runs outside the timed interval and returns ``(signature,
counts)``.  Outputs of the library are checked with the benchmark's own exact
rational arithmetic; outputs of the command line are parsed and compared with
library results computed before the first pass.  The signature and the counts
must repeat in every pass over the op list; the counts are exact per-layer
counts that only the output shows (the tracer counts the rest).

Library calls are made through module attributes (``splitjac.build_fan``,
``splitjac.cli.main``) at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable

import splitjac
import splitjac.cli


class CheckFailed(Exception):
    """An op returned an output that fails its exact check."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (signature, counts); raises on a bad output


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    # The fewest passes a run makes.  The tail percentile is the highest one with
    # ten samples beyond it in this many passes, and these are chosen so that it
    # falls inside a group of ops of like cost, not between two groups.
    min_passes: int


def _expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- exact 2x2 arithmetic on plain tuples, independent of splitjac.matrices ---

def _rows(m) -> tuple:
    return tuple(tuple(Fraction(m[i, j]) for j in range(2)) for i in range(2))


def _mul(a, b) -> tuple:
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
                 for i in range(2))


def _transpose(a) -> tuple:
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


def _det(a) -> Fraction:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _parse_matrix(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# --- pipeline and deep: torelli_preimage -> build_covers (-> build_diagram) ---

def _check_trace(sd, trace, covers) -> tuple:
    d, k, lp, l = sd.d, sd.k, sd.lp, sd.l
    q = _rows(trace.qpp)
    _expect(q == ((d * lp, -k * lp), (-k * lp, (k * k * lp + l) / d)),
            "qpp is not the closed-form period form")
    x = _rows(trace.x)
    _expect(all(v.denominator == 1 for row in x for v in row) and abs(_det(x)) == 1,
            "x is not unimodular")
    qt = _rows(trace.qtilde)
    _expect(_mul(_mul(_transpose(x), q), x) == qt, "x^T qpp x != qtilde")
    _expect(_det(qt) == lp * l, "det(qtilde) != lp * l")
    l1, l2, l3 = qt[0][0] + qt[0][1], qt[1][1] + qt[0][1], -qt[0][1]
    _expect(qt[0][1] == qt[1][0] and 0 <= l3 <= l1 <= l2,
            "qtilde is not in the fundamental domain")
    curve = trace.curve
    if l3 > 0:
        _expect((curve.le, curve.le1, curve.le2) == (l1, l2, l3),
                "theta curve lengths differ from the sigma coordinates of qtilde")
    else:
        _expect((curve.lc1, curve.lc2) == (l1, l2),
                "dumbbell lengths differ from the sigma coordinates of qtilde")
    for cover, target in ((covers.to_first, lp), (covers.to_second, l)):
        _expect(cover.degree == d and cover.target_length == target,
                f"cover of {cover.target} has degree {cover.degree}, expected {d}")
        mass = sum(Fraction(e.slope) ** 2 * e.length
                   for e in cover.edges if e.length is not None)
        _expect(mass == d * target, f"mass identity fails on the cover of {cover.target}")
    return (sum(trace.word.counts()), qt), {}


def _pipeline_op(sd):
    trace = splitjac.torelli_preimage(sd)
    return trace, splitjac.build_covers(trace), splitjac.build_diagram(sd)


def _check_pipeline(sd, out) -> tuple:
    trace, covers, diagram = out
    phi, phitilde = _rows(diagram.phi), _rows(diagram.phitilde)
    _expect(_mul(phitilde, phi) == ((sd.d, 0), (0, sd.d)), "phitilde @ phi != d * I")
    return _check_trace(sd, trace, covers)


def _deep_op(sd):
    trace = splitjac.torelli_preimage(sd)
    return trace, splitjac.build_covers(trace)


def _check_deep(sd, out) -> tuple:
    return _check_trace(sd, *out)


def _random_datum(rng):
    d = rng.randint(2, 64)
    k = rng.choice([k for k in range(1, d) if gcd(k, d) == 1])
    lp = Fraction(rng.randint(1, 64), rng.randint(1, 16))
    l = Fraction(rng.randint(1, 64), rng.randint(1, 16))
    return splitjac.SplittingData(d=d, k=k, lp=lp, l=l)


def _sd_label(sd) -> str:
    return f"d={sd.d} k={sd.k} lp={sd.lp} l={sd.l}"


PIPELINE_OPS = 1536


def pipeline(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(PIPELINE_OPS):
        sd = _random_datum(rng)
        ops.append(Op(f"pipeline {_sd_label(sd)}",
                      lambda sd=sd: _pipeline_op(sd),
                      lambda out, sd=sd: _check_pipeline(sd, out)))
    # p99: thirty samples beyond it, from some fifteen of the 1536 data
    return Workload("pipeline", WHY["pipeline"], tuple(ops), min_passes=2)


def golden_k(d: int) -> int:
    """The k coprime to d nearest to d/phi (the lower one on a tie)."""
    t = (isqrt(5 * d * d) - d + 1) // 2  # nearest integer to d (sqrt 5 - 1) / 2
    for off in range(d):
        for k in (t - off, t + off):
            if 1 <= k <= d - 1 and gcd(k, d) == 1:
                return k
    raise ValueError(f"no k coprime to {d}")


def deep(seed: int) -> Workload:
    sds = [splitjac.SplittingData(d=d, k=k, lp=lp, l=l)
           for d in (10 ** 3, 10 ** 4, 10 ** 5)
           for k in (1, golden_k(d))
           for lp, l in ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1, d)))]
    random.Random(seed).shuffle(sds)
    ops = [Op(f"deep {_sd_label(sd)}",
              lambda sd=sd: _deep_op(sd),
              lambda out, sd=sd: _check_deep(sd, out)) for sd in sds]
    # p85: among the d = 10^5, k = 1 ops, the 2nd and 3rd slowest of twelve
    return Workload("deep", WHY["deep"], tuple(ops), min_passes=6)


# --- fan: build_fan and compare_images ---

FAN_CASES = ((10, 1), (20, 1), (40, 1), (40, 39), (41, 9), (60, 7), (89, 55))
FAN_COMPARE_D = 13


def _check_rays(rays) -> None:
    _expect(len(rays) > 0 and rays[0][0] == (1, 0) and rays[-1][1] == (0, 1),
            "rays do not run from (1, 0) to (0, 1)")
    _expect(all(a[1] == b[0] for a, b in zip(rays, rays[1:])),
            "consecutive cones do not share a ray")


def _check_fan(d, k, fan) -> tuple:
    _expect((fan.d, fan.k) == (d, k), f"fan is for {(fan.d, fan.k)}, expected {(d, k)}")
    rays = tuple(c.rays for c in fan.cones)
    _check_rays(rays)
    words = [c.word for c in fan.cones]
    _expect(len(set(words)) == len(words), "two cones share a word")
    return rays, {}


def _check_compare(k1, k2, fans, res) -> tuple:
    _expect(isinstance(res.equal, bool), "compare_images did not return a bool")
    _expect((len(res.images1), len(res.images2)) == (len(fans[k1].cones), len(fans[k2].cones)),
            "one image cone per fan cone expected")
    if k1 + k2 == FAN_COMPARE_D:
        _expect(res.equal, f"images of k={k1} and k={k2} = d - k differ")
    return res.equal, {}


def _build_and_keep(fans, k):
    fans[k] = splitjac.build_fan(FAN_COMPARE_D, k)
    return fans[k]


def fan(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = list(FAN_CASES)
    ks = [k for k in range(1, FAN_COMPARE_D) if gcd(k, FAN_COMPARE_D) == 1]
    pairs = [(a, b) for a in ks for b in ks if a < b]
    for group in (cases, ks, pairs):
        rng.shuffle(group)
    fans = {}  # the d = 13 fans built in the current pass, read by the compare ops
    ops = [Op(f"build_fan d={d} k={k}",
              lambda d=d, k=k: splitjac.build_fan(d, k),
              lambda out, d=d, k=k: _check_fan(d, k, out)) for d, k in cases]
    ops += [Op(f"build_fan d={FAN_COMPARE_D} k={k}",
               lambda k=k: _build_and_keep(fans, k),
               lambda out, k=k: _check_fan(FAN_COMPARE_D, k, out)) for k in ks]
    ops += [Op(f"compare_images d={FAN_COMPARE_D} k1={a} k2={b}",
               lambda a=a, b=b: splitjac.compare_images(fans[a], fans[b]),
               lambda out, a=a, b=b: _check_compare(a, b, fans, out)) for a, b in pairs]
    # p98: among the two d = 40 fans, the slowest of 85 ops
    return Workload("fan", WHY["fan"], tuple(ops), min_passes=6)


# --- cli: splitjac.cli.main in process, output parsed and compared ---

@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = splitjac.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = 0 if exc.code is None else exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _sd_argv(d, k, lp, l) -> list:
    return ["--d", str(d), "--k", str(k), "--lp", str(lp), "--l", str(l)]


def _curve_fields(curve) -> dict:
    if isinstance(curve, splitjac.ThetaCurve):
        return {"type": "theta",
                "lengths": {"le": curve.le, "le1": curve.le1, "le2": curve.le2}}
    return {"type": "dumbbell", "lengths": {"lc1": curve.lc1, "lc2": curve.lc2}}


def _parsed_curve(j) -> dict:
    return {"type": j["type"], "lengths": {n: Fraction(v) for n, v in j["lengths"].items()}}


def _cli_reconstruct(sd):
    lib = splitjac.torelli_preimage(sd)

    def check(j):
        _expect(_parse_matrix(j["qpp"]) == _rows(lib.qpp), "qpp differs from the library")
        _expect(_parse_matrix(j["qtilde"]) == _rows(lib.qtilde), "qtilde differs from the library")
        _expect(_parse_matrix(j["x"]) == _rows(lib.x), "x differs from the library")
        _expect(j["word"]["counts"] == list(lib.word.counts()), "word differs from the library")
        _expect(_parsed_curve(j["curve"]) == _curve_fields(lib.curve),
                "curve differs from the library")
    return check


def _cli_covers(sd):
    lib = splitjac.build_covers(splitjac.torelli_preimage(sd))

    def check(j):
        for name, cover in (("to_first", lib.to_first), ("to_second", lib.to_second)):
            got = [(e["edge"], e["slope"], Fraction(e["offset"]),
                    None if e["length"] is None else Fraction(e["length"]))
                   for e in j["covers"][name]["edges"]]
            want = [(e.edge, e.slope, e.offset, e.length) for e in cover.edges]
            _expect(got == want and j["covers"][name]["degree"] == cover.degree,
                    f"cover {name} differs from the library")
    return check


def _cli_diagram(sd):
    lib = splitjac.build_diagram(sd)

    def check(j):
        _expect(_parse_matrix(j["phi"]) == _rows(lib.phi), "phi differs from the library")
        _expect(_parse_matrix(j["phitilde"]) == _rows(lib.phitilde),
                "phitilde differs from the library")
        kernel = [tuple(Fraction(v) for v in pt) for pt in j["kernel_normalized"]]
        _expect(kernel == list(lib.kernel_normalized), "kernel differs from the library")
    return check


def _cli_setmatrix(sd):
    lib = splitjac.qpp(sd)

    def check(j):
        _expect(_parse_matrix(j["qpp"]) == _rows(lib), "qpp differs from the library")
        _expect(Fraction(j["det"]) == sd.lp * sd.l, "det differs from lp * l")
    return check


def _cli_fan(d, k):
    lib = splitjac.build_fan(d, k)

    def check(j):
        _expect(j["num_cones"] == len(lib.cones), "cone count differs from the library")
        rays = [tuple(tuple(r) for r in c["rays"]) for c in j["cones"]]
        _check_rays(rays)
        _expect(rays == [c.rays for c in lib.cones], "rays differ from the library")
    return check


def _cli_compare(d, k1, k2):
    lib = splitjac.compare_images(splitjac.build_fan(d, k1), splitjac.build_fan(d, k2))

    def check(j):
        _expect(j["equal"] == lib.equal, "equality differs from the library")
        images = [tuple(tuple(v) for v in pair) for pair in j["images1"]]
        _expect(images == [tuple(tuple(v) for v in pair) for pair in lib.images1],
                "images differ from the library")
    return check


def _cli_sweep(d, k, lps, ls):
    want = []
    for lp in lps:
        for l in ls:
            curve = splitjac.torelli_preimage(splitjac.SplittingData(d=d, k=k, lp=lp, l=l)).curve
            fields = _curve_fields(curve)
            want.append([lp, l, fields["type"]] + list(fields["lengths"].values()))

    def check(text):
        rows = list(csv.reader(io.StringIO(text)))
        _expect(rows[0] == ["lp", "l", "type", "len1", "len2", "len3"], "bad CSV header")
        got = [[Fraction(r[0]), Fraction(r[1]), r[2]] + [Fraction(v) for v in r[3:] if v]
               for r in rows[1:]]
        _expect(got == want, "sweep rows differ from the library")
    return check


def _cli_op(label, argv, code, check_stdout, parse_json=True) -> Op:
    def check(res):
        _expect(res.code == code, f"exit code {res.code}, expected {code}")
        if code == 0:
            _expect(res.stderr == "", "unexpected stderr output")
            check_stdout(json.loads(res.stdout) if parse_json else res.stdout)
        else:
            _expect(res.stdout == "", "stdout written on a usage error")
        return (res.code, res.stdout), {"cli.stdout_bytes": len(res.stdout.encode())}
    return Op(f"cli {label}", lambda: run_cli(argv), check)


def cli(seed: int) -> Workload:
    sd = splitjac.SplittingData(d=18, k=7, lp=Fraction(3), l=Fraction(1))
    dumbbell = splitjac.SplittingData(d=16, k=1, lp=Fraction(3), l=Fraction(5))
    lps = [Fraction(n) for n in (1, 2, 3, 4, 5)]
    ls = [Fraction(n, 2) for n in (1, 2, 3, 4, 5)]
    sd_argv = _sd_argv(18, 7, 3, 1)
    ops = [
        _cli_op("reconstruct", ["reconstruct"] + sd_argv, 0, _cli_reconstruct(sd)),
        _cli_op("covers", ["covers"] + _sd_argv(16, 1, 3, 5), 0, _cli_covers(dumbbell)),
        _cli_op("diagram", ["diagram"] + sd_argv, 0, _cli_diagram(sd)),
        _cli_op("setmatrix", ["setmatrix"] + sd_argv, 0, _cli_setmatrix(sd)),
        _cli_op("fan", ["fan", "--d", "20", "--k", "1"], 0, _cli_fan(20, 1)),
        _cli_op("locus-compare", ["locus-compare", "--d", "7", "--k1", "1", "--k2", "6"], 0,
                _cli_compare(7, 1, 6)),
        _cli_op("sweep", ["sweep", "--d", "5", "--k", "2",
                          "--lp", ",".join(map(str, lps)), "--l", ",".join(map(str, ls))],
                0, _cli_sweep(5, 2, lps, ls), parse_json=False),
        _cli_op("setmatrix --lp 1/0", ["setmatrix"] + _sd_argv(18, 7, "1/0", 1), 2, None),
    ]
    random.Random(seed).shuffle(ops)
    # p80: on locus-compare, the 2nd slowest of eight ops (p75 would fall between two)
    return Workload("cli", WHY["cli"], tuple(ops), min_passes=7)


WHY = {  # the same reasons as in BENCHMARK.json
    "pipeline": (
        "random small data (d <= 64); constant-factor cost in matrices, splitting, "
        "tav and certification dominates, so a faster reduction shows no gain"),
    "deep": (
        "d up to 10^5; selling_reduce does nearly all the work with up to 10^4 unit "
        "moves, and the d = 10^5, k = 1 ops hit the iteration cap"),
    "fan": (
        "the only workload in locus; reaches matrices through symbolic LinForm "
        "entries, and the d = 40 fans set the tail"),
    "cli": (
        "argparse and JSON/CSV rendering in process, with a duplicate build_jpp in "
        "diagram and an invalid --lp 1/0 that must exit with code 2"),
}

BY_NAME = {"pipeline": pipeline, "deep": deep, "fan": fan, "cli": cli}
