#!/usr/bin/env python3
"""Compare the length-space images of the split-locus fans across k.

For a fixed degree d there is one fan per residue k coprime to d.  The
residues k and d - k give fans with the same rays (only the words differ),
and k^-1 mod d gives the mirror fan: (lp, l) swapped, cones in reverse order.
Whether *all* the fans of one degree share the same image in curve space
is an open question.  This experiment computes one canonical image key per
residue (image_key), derives every pairwise verdict from key equality, and
reports the verdicts without asserting anything.  For each degree it also reports
whether the equal pairs are exactly the pairs with k2 = +-k1 or
k2 = +-k1^-1 (mod d); a match over a range of d is evidence, not a proof.

Examples:

    python3 scripts/fan_image_experiment.py
    python3 scripts/fan_image_experiment.py --min-d 5 --max-d 5 --show-images
    python3 scripts/fan_image_experiment.py --json-path images.json
"""

import argparse
import itertools
import json
import sys
from math import gcd

from splitjac import build_fan, image_cones, image_key


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-d", type=int, default=2)
    parser.add_argument("--max-d", type=int, default=8)
    parser.add_argument("--show-images", action="store_true",
                        help="print each fan's canonicalized image cones")
    parser.add_argument("--json-path", default="",
                        help="write the full report as JSON to this path")
    ns = parser.parse_args(argv)
    if not 2 <= ns.min_d <= ns.max_d:
        parser.error("need 2 <= --min-d <= --max-d")
    return ns


def run(args: argparse.Namespace) -> dict:
    report = {}
    for d in range(args.min_d, args.max_d + 1):
        ks = [k for k in range(1, d) if gcd(k, d) == 1]
        fans = {k: build_fan(d, k) for k in ks}
        keys = {k: image_key(fans[k]) for k in ks}
        pairs = []
        for k1, k2 in itertools.combinations(ks, 2):
            related = k2 in {k1, d - k1, pow(k1, -1, d), d - pow(k1, -1, d)}
            pairs.append({"k1": k1, "k2": k2, "equal": keys[k1] == keys[k2], "related": related})
        report[d] = {
            "cone_counts": {k: len(fans[k].cones) for k in ks},
            "pairs": pairs,
            "all_equal": all(p["equal"] for p in pairs),
            "exceptions": [p for p in pairs if p["equal"] != p["related"]],
            "images": {k: image_cones(fans[k]) for k in ks},
        }
    return report


def print_report(report: dict, show_images: bool) -> None:
    for d, entry in report.items():
        counts = " ".join(f"k={k}:{n}" for k, n in entry["cone_counts"].items())
        print(f"d={d}  cones per fan: {counts}")
        for pair in entry["pairs"]:
            verdict = "equal" if pair["equal"] else "DIFFERENT"
            print(f"  image(k={pair['k1']}) vs image(k={pair['k2']}): {verdict}")
        if not entry["pairs"]:
            print("  single fan, nothing to compare")
        elif entry["all_equal"]:
            print(f"  => all {len(entry['cone_counts'])} fans of degree {d} share one image")
        rule = "yes" if not entry["exceptions"] else f"NO, exceptions {entry['exceptions']}"
        print(f"  equal pairs are exactly k2 = +-k1^(+-1) mod {d}: {rule}")
        if show_images:
            for k, cones in entry["images"].items():
                print(f"  image cones of k={k}:")
                for v1, v2 in cones:
                    print(f"    span{{{v1}, {v2}}}")
    total = sum(len(e["pairs"]) for e in report.values())
    agree = sum(sum(p["equal"] for p in e["pairs"]) for e in report.values())
    exceptions = sum(len(e["exceptions"]) for e in report.values())
    print(f"pairs compared: {total}, images equal: {agree}, different: {total - agree}")
    print(f"pairs against the rule k2 = +-k1^(+-1) mod d: {exceptions}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    report = run(args)
    print_report(report, args.show_images)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=list)
        print(f"wrote {args.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
