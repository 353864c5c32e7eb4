"""Command line interface.

All data commands print deterministic JSON (default) or CSV to stdout with
rationals serialized exactly as 'p/q' strings.  Exit codes: 0 success,
1 domain error (JSON error object on stderr), 2 usage error.

Note: argparse only auto-detects plain negative integers, so negative
fractions must be passed with '=': e.g. --q12=-5/9.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .errors import SplitJacError, ValidationError
from .locus import boundary_rays, build_fan, compare_images
from .matrices import SFLIP, Mat, congruence_act, parse_rat, rat_str
from .reconstruct import build_covers, period_matrix, torelli_preimage
from .selling import (
    DEFAULT_CAP,
    ThetaCurve,
    classify_curve,
    fd_representative,
    selling_params,
    selling_reduce,
    sigma_coords,
)
from .splitting import SplittingData, build_diagram, qpp
from .tav import Tav, TavMorphism, adjoint, classify, compose, induce_polarization


def _sd_from_args(args) -> SplittingData:
    return SplittingData(d=args.d, k=args.k, lp=args.lp, l=args.l)


def _form_from_args(args) -> Mat:
    return Mat(((args.q11, args.q12), (args.q12, args.q22)))


def _word_json(word) -> dict:
    return {
        "moves": list(word.moves),
        "counts": list(word.counts()),
        "preflip": word.preflip,
        "stab": word.stab.to_strs(),
    }


def _curve_json(curve) -> dict:
    if isinstance(curve, ThetaCurve):
        return {"type": "theta",
                "lengths": {"le": rat_str(curve.le), "le1": rat_str(curve.le1),
                            "le2": rat_str(curve.le2)}}
    return {"type": "dumbbell",
            "lengths": {"lc1": rat_str(curve.lc1), "lc2": rat_str(curve.lc2)},
            "bridge": "free parameter t >= 0"}


def _curve_csv_lengths(curve) -> list:
    if isinstance(curve, ThetaCurve):
        return [rat_str(curve.le), rat_str(curve.le1), rat_str(curve.le2)]
    return [rat_str(curve.lc1), rat_str(curve.lc2), ""]


def _params_json(q: Mat) -> dict:
    p = selling_params(q)
    return {"p12": rat_str(p.p12), "p13": rat_str(p.p13), "p23": rat_str(p.p23)}


def _linform_json(f) -> dict:
    return {"lp": rat_str(f.a), "l": rat_str(f.b)}


def _emit_json(obj) -> int:
    print(json.dumps(obj, indent=2))
    return 0


# Pieces of json.dumps(obj, indent=2) output, for writing fan's JSON as it is rendered.
_PAD6, _PAD8 = " " * 6, " " * 8
_MOVE_ITEMS = {move: f'{_PAD8}"{move}"' for move in ("T1", "T2")}


def _json_at(obj, pad: str) -> str:
    """json.dumps(obj, indent=2) for a value nested at indentation pad."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def _json_list(items: list, pad: str) -> str:
    """A JSON list at indentation pad of rendered items, each already indented."""
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


def _word_list(word) -> str:
    return _json_list([_MOVE_ITEMS[move] for move in word], _PAD6)


def _write_list(out, items) -> None:
    """Write a JSON list at indentation 2, one rendered item at a time."""
    first = True
    for item in items:
        out.write("[\n" if first else ",\n")
        out.write(item)
        first = False
    out.write("[]" if first else "\n  ]")


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _mat_from_strs(rows) -> Mat:
    try:
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValidationError("expected a list of lists")
        return Mat(tuple(tuple(parse_rat(str(x)) for x in row) for row in rows))
    except (ValueError, TypeError, ValidationError) as exc:
        raise ValidationError(f"bad matrix in input: {rows!r} ({exc})") from exc


def _load_input(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON input: {exc}") from exc


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _morphism_from_input(data) -> TavMorphism:
    _object(data, "input")
    try:
        src, tgt = _object(data["source"], "'source'"), _object(data["target"], "'target'")
        source = Tav(_mat_from_strs(src["pairing"]),
                     _mat_from_strs(src["polarization"]) if "polarization" in src else None)
        target = Tav(_mat_from_strs(tgt["pairing"]),
                     _mat_from_strs(tgt["polarization"]) if "polarization" in tgt else None)
        return TavMorphism(source, target,
                           msharp=_mat_from_strs(data["msharp"]),
                           mflat=_mat_from_strs(data["mflat"]))
    except KeyError as exc:
        raise ValidationError(f"missing input field: {exc}") from exc


def cmd_setmatrix(args) -> int:
    sd = _sd_from_args(args)
    q = qpp(sd)
    return _emit_json({
        "d": sd.d, "k": sd.k, "lp": rat_str(sd.lp), "l": rat_str(sd.l),
        "qpp": q.to_strs(),
        "det": rat_str(q.det()),
    })


def cmd_selling(args) -> int:
    q = _form_from_args(args)
    preflip = q[0, 1] > 0
    q_run = congruence_act(SFLIP, q) if preflip else q
    qred, word = selling_reduce(q_run, cap=args.cap)
    word = replace(word, preflip=preflip)
    return _emit_json({
        "input": q.to_strs(),
        "preflip": preflip,
        "params": _params_json(qred),
        "word": _word_json(word),
        "qreduced": qred.to_strs(),
    })


def cmd_fd(args) -> int:
    q = _form_from_args(args)
    qtilde, stab = fd_representative(q)
    return _emit_json({
        "qtilde": qtilde.to_strs(),
        "stab": stab.to_strs(),
        "sigma_coords": [rat_str(c) for c in sigma_coords(qtilde)],
    })


def cmd_lengths(args) -> int:
    q = _form_from_args(args)
    curve = classify_curve(q)
    return _emit_json({
        "sigma_coords": [rat_str(c) for c in sigma_coords(q)],
        "curve": _curve_json(curve),
    })


def cmd_reconstruct(args) -> int:
    sd = _sd_from_args(args)
    trace = torelli_preimage(sd, cap=args.cap)
    if args.format == "csv":
        w = _csv_writer()
        w.writerow(["d", "k", "lp", "l", "type", "len1", "len2", "len3"])
        kind = "theta" if isinstance(trace.curve, ThetaCurve) else "dumbbell"
        w.writerow([sd.d, sd.k, rat_str(sd.lp), rat_str(sd.l), kind]
                   + _curve_csv_lengths(trace.curve))
        return 0
    pm = period_matrix(trace.curve)
    return _emit_json({
        "d": sd.d, "k": sd.k, "lp": rat_str(sd.lp), "l": rat_str(sd.l),
        "qpp": trace.qpp.to_strs(),
        "word": _word_json(trace.word),
        "qreduced": trace.qred.to_strs(),
        "qtilde": trace.qtilde.to_strs(),
        "x": trace.x.to_strs(),
        "sigma_coords": [rat_str(c) for c in sigma_coords(trace.qtilde)],
        "curve": _curve_json(trace.curve),
        "period_matrix": {"kind": pm.kind, "q": pm.q.to_strs()},
    })


def cmd_covers(args) -> int:
    sd = _sd_from_args(args)
    trace = torelli_preimage(sd, cap=args.cap)
    pair = build_covers(trace)

    def cover_json(c):
        return {
            "target": c.target,
            "target_length": rat_str(c.target_length),
            "degree": c.degree,
            "edges": [{
                "edge": e.edge,
                "slope": e.slope,
                "offset": rat_str(e.offset),
                "length": None if e.length is None else rat_str(e.length),
            } for e in c.edges],
        }

    return _emit_json({
        "curve": _curve_json(trace.curve),
        "covers": {"to_first": cover_json(pair.to_first),
                   "to_second": cover_json(pair.to_second)},
    })


def cmd_diagram(args) -> int:
    sd = _sd_from_args(args)
    dg = build_diagram(sd)
    return _emit_json({
        "phi": dg.phi.to_strs(),
        "phitilde": dg.phitilde.to_strs(),
        "f1": dg.f1.to_strs(),
        "f2": dg.f2.to_strs(),
        "g1": dg.g1.to_strs(),
        "g2": dg.g2.to_strs(),
        "zeta": dg.zeta.to_strs(),
        "gram": dg.gram.to_strs(),
        "kernel_normalized": [[rat_str(u), rat_str(v)] for u, v in dg.kernel_normalized],
        "kernel_raw": [[rat_str(u), rat_str(v)] for u, v in dg.kernel_raw],
        "identities": {
            "g1@f1": rat_str((dg.g1 @ dg.f1)[0, 0]),
            "g1@f2": rat_str((dg.g1 @ dg.f2)[0, 0]),
            "g2@f1": rat_str((dg.g2 @ dg.f1)[0, 0]),
            "g2@f2": rat_str((dg.g2 @ dg.f2)[0, 0]),
            "phitilde@phi": (dg.phitilde @ dg.phi).to_strs(),
        },
    })


def cmd_mumford(args) -> int:
    data = _load_input(args.input)
    f = _morphism_from_input(data)
    if "z1" not in data:
        raise ValidationError("missing input field: 'z1'")
    res = induce_polarization(f, _mat_from_strs(data["z1"]))
    return _emit_json({
        "m": res.m.to_strs(),
        "inducible": res.inducible,
        "zeta2": None if res.zeta2 is None else res.zeta2.to_strs(),
    })


def cmd_adjoint(args) -> int:
    data = _load_input(args.input)
    f = _morphism_from_input(data)
    for key in ("z1", "z2"):
        if key not in data:
            raise ValidationError(f"missing input field: '{key}'")
    adj = adjoint(f, _mat_from_strs(data["z1"]), _mat_from_strs(data["z2"]))
    comp = compose(adj, f)
    return _emit_json({
        "adjoint": {"msharp": adj.msharp.to_strs(), "mflat": adj.mflat.to_strs(),
                    "torus_map": adj.torus_map.to_strs()},
        "composite": {"msharp": comp.msharp.to_strs(), "mflat": comp.mflat.to_strs()},
        "degree": classify(f).degree,
    })


def cmd_fan(args) -> int:
    fan = build_fan(args.d, args.k, cap=args.cap)
    if args.csv is not None:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["index", "word", "ray1_lp", "ray1_l", "ray2_lp", "ray2_l",
                            "sample_lp", "sample_l"])
                for i, cone in enumerate(fan.cones):
                    (x1, y1), (x2, y2) = cone.rays
                    w.writerow([i, ".".join(cone.word), x1, y1, x2, y2, x1 + x2, y1 + y2])
        except OSError as exc:
            raise ValidationError(f"cannot write CSV: {exc}") from exc
    rays = boundary_rays(fan)
    # The output has O(N^2) bytes for N cones but O(N) distinct forms, so it is
    # written cone by cone and each form object is rendered once.
    # id(LinForm) -> its list item: the fan keeps its forms alive, and cone m's are
    # fired[:m] + terminals[m]
    items = {}

    def forms(fs) -> str:
        for f in fs:
            if id(f) not in items:
                items[id(f)] = _PAD8 + _json_at(_linform_json(f), _PAD8)
        return _json_list([items[id(f)] for f in fs], _PAD6)

    def cone_item(c) -> str:
        return ("    {\n"
                f'      "word": {_word_list(c.word)},\n'
                f'      "inequalities": {forms(c.inequalities)},\n'
                f'      "rays": {_json_at([list(r) for r in c.rays], _PAD6)},\n'
                f'      "phi_sigma": {forms(c.phi_sigma)}\n'
                "    }")

    def boundary_item(word, f) -> str:
        return ("    {\n"
                f'      "word": {_word_list(word)},\n'
                f'      "form": {_json_at(_linform_json(f), _PAD6)}\n'
                "    }")

    out = sys.stdout
    out.write(f'{{\n  "d": {fan.d},\n  "k": {fan.k},\n  "num_cones": {len(fan.cones)},\n'
              '  "cones": ')
    _write_list(out, map(cone_item, fan.cones))
    out.write(',\n  "boundary_rays": ')
    _write_list(out, (boundary_item(word, f) for word, f in rays))
    out.write("\n}\n")
    return 0


def cmd_locus_compare(args) -> int:
    fan1 = build_fan(args.d, args.k1, cap=args.cap)
    fan2 = build_fan(args.d, args.k2, cap=args.cap)
    res = compare_images(fan1, fan2)
    return _emit_json({
        "d": args.d, "k1": args.k1, "k2": args.k2,
        "equal": res.equal,
        "images1": [[list(v) for v in pair] for pair in res.images1],
        "images2": [[list(v) for v in pair] for pair in res.images2],
    })


def _parse_rat_list(text: str) -> list:
    try:
        return [parse_rat(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad rational list {text!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    lps = _parse_rat_list(args.lp)
    ls = _parse_rat_list(args.l)
    if not lps or not ls:
        raise ValidationError("empty length list")
    rows = []
    for lp in lps:
        for l in ls:
            sd = SplittingData(d=args.d, k=args.k, lp=lp, l=l)
            trace = torelli_preimage(sd, cap=args.cap)
            kind = "theta" if isinstance(trace.curve, ThetaCurve) else "dumbbell"
            rows.append([rat_str(lp), rat_str(l), kind]
                        + _curve_csv_lengths(trace.curve))
    if args.format == "json":
        return _emit_json({
            "d": args.d, "k": args.k,
            "rows": [{"lp": r[0], "l": r[1], "type": r[2],
                      "len1": r[3], "len2": r[4], "len3": r[5]} for r in rows],
        })
    w = _csv_writer()
    w.writerow(["lp", "l", "type", "len1", "len2", "len3"])
    for r in rows:
        w.writerow(r)
    return 0


def _add_sd_args(p) -> None:
    p.add_argument("--d", type=int, required=True, help="gluing degree (>= 2)")
    p.add_argument("--k", type=int, required=True, help="torsion parameter, coprime to d")
    p.add_argument("--lp", type=parse_rat, required=True, help="first circle length")
    p.add_argument("--l", type=parse_rat, required=True, help="second circle length")


def _add_form_args(p) -> None:
    p.add_argument("--q11", type=parse_rat, required=True)
    p.add_argument("--q12", type=parse_rat, required=True,
                   help="use --q12=-a/b for negative values")
    p.add_argument("--q22", type=parse_rat, required=True)


def _cap(text: str) -> int:
    """argparse type of --cap: an integer >= 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"invalid cap {text!r}: expected an integer >= 1")
    return cap


def _add_cap(p, default=DEFAULT_CAP, help="iteration cap") -> None:
    p.add_argument("--cap", type=_cap, default=default, help=help)


def _add_format(p, choices=("json", "csv"), default="json") -> None:
    p.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitjac",
        description="Exact tools for split tropical Jacobians")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setmatrix", help="period form of splitting data")
    _add_sd_args(p)
    p.set_defaults(func=cmd_setmatrix)

    p = sub.add_parser("selling", help="Selling reduction of a definite form")
    _add_form_args(p)
    _add_cap(p)
    p.set_defaults(func=cmd_selling)

    p = sub.add_parser("fd", help="fundamental-domain representative of a reduced form")
    _add_form_args(p)
    p.set_defaults(func=cmd_fd)

    p = sub.add_parser("lengths", help="curve type and edge lengths of a reduced form")
    _add_form_args(p)
    p.set_defaults(func=cmd_lengths)

    p = sub.add_parser("reconstruct", help="full pipeline: splitting data to curve")
    _add_sd_args(p)
    _add_cap(p)
    _add_format(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("covers", help="the two harmonic covers of the circles")
    _add_sd_args(p)
    _add_cap(p)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("diagram", help="splitting isogeny, adjoint, kernel")
    _add_sd_args(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("mumford", help="descend a polarization along a morphism (JSON input)")
    p.add_argument("--input", required=True, help="JSON file path or - for stdin")
    p.set_defaults(func=cmd_mumford)

    p = sub.add_parser("adjoint", help="adjoint morphism w.r.t. principal polarizations (JSON input)")
    p.add_argument("--input", required=True, help="JSON file path or - for stdin")
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("fan", help="fan of the d-split locus for fixed (d, k)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_cap(p, default=None, help="cone cap (default: no cap)")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="also write rays and sample points to a CSV file")
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("locus-compare", help="compare images of two fans up to relabeling")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    _add_cap(p, default=None, help="cone cap (default: no cap)")
    p.set_defaults(func=cmd_locus_compare)

    p = sub.add_parser("sweep", help="classify a grid of lengths, CSV output")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lp", required=True, help="comma-separated rationals")
    p.add_argument("--l", required=True, help="comma-separated rationals")
    _add_cap(p)
    _add_format(p, default="csv")
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SplitJacError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
