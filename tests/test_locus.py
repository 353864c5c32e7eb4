"""Symbolic reduction fans and image comparison in length space."""

import hashlib
import importlib.util
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby, permutations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import splitjac.locus as locus
from conftest import positive_rationals, rationals
from splitjac.errors import (
    ConeCapExceeded,
    InternalInconsistency,
    SplitJacError,
    ValidationError,
)
from splitjac.locus import (
    FanCone,
    FanDelta,
    LinForm,
    boundary_rays,
    build_fan,
    canonical_image,
    compare_images,
    image_cones,
    image_key,
    qpp_symbolic,
)
from splitjac.matrices import Mat, cleared
from splitjac.reconstruct import torelli_preimage
from splitjac.selling import (
    DEFAULT_CAP,
    DumbbellFamily,
    reduce_triple,
    selling_reduce,
    sigma_coords,
)
from splitjac.splitting import SplittingData, qpp


# --- oracles: build_fan and image_cones on Fraction coefficients, the image
# key with one plane normal per relabeled cone, a cone-by-cone sampling walk
# of the quadrant, and a compare_images that scans the whole pool for every
# cone ---

def oracle_build_fan(d, k):
    """build_fan on qpp_symbolic itself, whose coefficients have denominator d."""
    q = qpp_symbolic(d, k)
    triple = (q[0, 0], q[0, 1], q[1, 1])
    _, runs = reduce_triple(*triple, locus._negative_at_lp_axis, DEFAULT_CAP)
    word, fired, terminals = locus._prefix_forms(triple, runs)
    n = len(word)
    rays = [(1, 0)] + [f.kernel_direction() for f in reversed(fired)] + [(0, 1)]
    locus._certify_fan(fired, terminals, rays)
    cones = tuple(FanCone(word=word[:m], inequalities=fired[:m] + terminals[m],
                          rays=(rays[n - m], rays[n - m + 1]), phi_sigma=terminals[m])
                  for m in range(n, -1, -1))
    return FanDelta(d=d, k=k, cones=cones)


def _fraction_primitive(vals):
    m = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (m // v.denominator) for v in vals]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def oracle_image_cones(fan):
    """image_cones with phi_sigma evaluated at the rays in Fraction arithmetic."""
    return tuple(tuple(_fraction_primitive(tuple(f.evaluate(Fraction(x), Fraction(y))
                                                 for f in cone.phi_sigma))
                       for x, y in cone.rays)
                 for cone in fan.cones)


def _plane_normal(v1, v2) -> tuple:
    c = locus._cross3(v1, v2)
    if c == (0, 0, 0):
        raise InternalInconsistency(f"degenerate image cone: {v1}, {v2}")
    n = locus._primitive(c)
    return n if n > (0, 0, 0) else tuple(-y for y in n)  # first nonzero entry positive


def _relabelings(v1, v2):
    """The six relabelings of a generator pair, each pair sorted."""
    for perm in permutations(range(3)):
        w1, w2 = tuple(v1[i] for i in perm), tuple(v2[i] for i in perm)
        yield (w1, w2) if w1 <= w2 else (w2, w1)


def _saturate(cones) -> set:
    return {pair for cone in cones for pair in _relabelings(*cone)}


def oracle_arcs(cones) -> dict:
    """{plane normal: maximal arcs} of a union of cones, each oriented by its own normal."""
    sectors = {}
    for v1, v2 in cones:
        n = _plane_normal(v1, v2)
        sectors.setdefault(n, []).append((v1, v2) if locus._turn(v1, v2, n) > 0 else (v2, v1))
    out = {}
    for n, group in sectors.items():
        group.sort(key=cmp_to_key(lambda s, t: locus._turn(t[0], s[0], n)))
        arcs = [list(group[0])]
        for lo, hi in group[1:]:
            if locus._turn(arcs[-1][1], lo, n) > 0:
                arcs.append([lo, hi])
            elif locus._turn(arcs[-1][1], hi, n) > 0:
                arcs[-1][1] = hi
        out[n] = tuple(map(tuple, arcs))
    return out


def oracle_key(cones) -> tuple:
    """The image key from a plane normal computed for each relabeled cone."""
    return tuple(sorted(oracle_arcs(_saturate(cones)).items()))


def oracle_canonical_image(v1, v2) -> tuple:
    return min(_relabelings(v1, v2))


class DegenerateSample(SplitJacError):
    """Sample point on a wall of the fan; the walk oracle retries with another."""


def _walk_symbolic_reduce(d, k, sample):
    q = qpp_symbolic(d, k)
    lp, l = sample
    (a, b, c), runs = reduce_triple(q[0, 0], q[0, 1], q[1, 1],
                                    lambda f: f.evaluate(lp, l) < 0, DEFAULT_CAP)
    moves, fired = [], []
    for move, n, (a0, b0, c0) in runs:
        step = a0 if move == "T2" else c0
        moves.extend([move] * n)
        fired.extend(-(step + b0 + j * step) for j in range(n))
    terminal = (a + b, c + b, -b)
    if any(t.evaluate(lp, l) == 0 for t in terminal):
        raise DegenerateSample(f"terminal coordinate vanishes at {sample}")
    return tuple(moves), tuple(fired) + terminal, terminal


def _angle_cmp(r, s):
    cross = r[0] * s[1] - r[1] * s[0]
    return -1 if cross > 0 else 1 if cross < 0 else 0


def _extreme_rays(ineqs):
    usable = [f for f in ineqs if not f.is_zero()]
    cands = set()
    for f in usable:
        dirn = f.kernel_direction()
        if dirn is not None and all(g.evaluate(*dirn) >= 0 for g in usable):
            cands.add(dirn)
    for axis in ((1, 0), (0, 1)):
        if all(g.evaluate(*axis) >= 0 for g in usable):
            cands.add(axis)
    assert len(cands) == 2, sorted(cands)
    return tuple(sorted(cands, key=cmp_to_key(_angle_cmp)))


def _walk_cone_at(d, k, sample):
    moves, ineqs, phi_sigma = _walk_symbolic_reduce(d, k, sample)
    return FanCone(word=moves, inequalities=ineqs, rays=_extreme_rays(ineqs),
                   phi_sigma=phi_sigma)


def walk_fan(d, k):
    """Sample the quadrant counterclockwise, one maximal cone at a time."""
    first = None
    for attempt in range(64):
        try:
            cone = _walk_cone_at(d, k, (Fraction(1), Fraction(1, (2 * d) << attempt)))
        except DegenerateSample:
            continue
        if cone.rays[0] == (1, 0):
            first = cone
            break
    assert first is not None
    cones = [first]
    while cones[-1].rays[1] != (0, 1):
        assert len(cones) < 64 * d
        rx, ry = cones[-1].rays[1]
        nxt = None
        for attempt in range(64):
            delta = Fraction(1, 16 << attempt)
            sample = (rx - delta * ry, ry + delta * rx)
            if sample[0] <= 0 or sample[1] <= 0:
                continue
            try:
                cone = _walk_cone_at(d, k, sample)
            except DegenerateSample:
                continue
            if cone.rays[0] == (rx, ry):
                nxt = cone
                break
        assert nxt is not None and nxt.word != cones[-1].word
        cones.append(nxt)
    return FanDelta(d=d, k=k, cones=tuple(cones))


def _solve_interval(v1, v2, w1, w2):
    """s-range in [0, 1] where (1-s) v1 + s v2 lies in cone(w1, w2), or None."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = w1[i] * w2[j] - w1[j] * w2[i]
        if det != 0:
            break
    else:
        raise AssertionError("collinear generators in image cone")
    dv = tuple(v2[t] - v1[t] for t in range(3))
    a0 = Fraction(v1[i] * w2[j] - v1[j] * w2[i], det)
    a1 = Fraction(dv[i] * w2[j] - dv[j] * w2[i], det)
    b0 = Fraction(w1[i] * v1[j] - w1[j] * v1[i], det)
    b1 = Fraction(w1[i] * dv[j] - w1[j] * dv[i], det)
    for s_val, av, bv in ((0, a0, b0), (1, a0 + a1, b0 + b1)):
        x = v1 if s_val == 0 else v2
        for t in range(3):
            if av * w1[t] + bv * w2[t] != x[t]:
                return None  # not coplanar with (w1, w2) after all
    lo, hi = Fraction(0), Fraction(1)
    for c0, c1 in ((a0, a1), (b0, b1)):
        if c1 == 0:
            if c0 < 0:
                return None
        elif c1 > 0:
            lo = max(lo, -c0 / c1)
        else:
            hi = min(hi, -c0 / c1)
    if lo > hi:
        return None
    return (lo, hi)


def _pool_covered(cone, pool):
    v1, v2 = cone
    n = _plane_normal(v1, v2)
    intervals = []
    for w1, w2 in pool:
        if _plane_normal(w1, w2) != n:
            continue
        interval = _solve_interval(v1, v2, w1, w2)
        if interval is not None:
            intervals.append(interval)
    intervals.sort()
    reach = Fraction(0)
    for lo, hi in intervals:
        if lo > reach:
            return False
        reach = max(reach, hi)
        if reach >= 1:
            return True
    return reach >= 1


def pool_scan_equal(fan1, fan2):
    sat1 = _saturate(image_cones(fan1))
    sat2 = _saturate(image_cones(fan2))
    return (all(_pool_covered(c, sat2) for c in sat1)
            and all(_pool_covered(c, sat1) for c in sat2))


def coprime_pairs(max_d):
    return [(d, k) for d in range(2, max_d + 1) for k in range(1, d) if gcd(k, d) == 1]


def partial_quotients(p, q):
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    return out


def test_linform_algebra():
    f = LinForm(2, -1)
    g = LinForm(Fraction(1, 3), 1)
    assert f + g == LinForm(Fraction(7, 3), 0)
    assert f - g == LinForm(Fraction(5, 3), -2)
    assert 3 * g == LinForm(1, 3)
    assert sum([f, g, -f]) == g  # __radd__ with the int 0 start value
    assert f.evaluate(1, 2) == 0
    assert LinForm(Fraction(-4, 6), Fraction(2, 6)).primitive() == LinForm(-2, 1)
    assert LinForm(Fraction(4, 6), Fraction(-2, 6)).primitive() == LinForm(-2, 1)
    assert LinForm(-3, 0).primitive() == LinForm(1, 0)
    assert f.kernel_direction() == (1, 2)
    assert LinForm(1, 1).kernel_direction() is None
    assert LinForm(0, 0).is_zero()
    with pytest.raises(ValidationError, match="zero form"):
        LinForm(0, 0).primitive()


def oracle_cleared(vals) -> tuple:
    """m * vals for the least m > 0 that makes every entry of an int or Fraction vector an int."""
    m = lcm(*(v.denominator for v in vals))
    return tuple(v.numerator * (m // v.denominator) for v in vals)


@given(st.lists(st.one_of(st.integers(min_value=-50, max_value=50), rationals()),
                min_size=1, max_size=6))
def test_cleared_matches_the_oracle(vals):
    ints, den = cleared(vals)
    assert ints == oracle_cleared(vals)
    assert all(type(x) is int for x in ints)
    assert den == lcm(*(Fraction(v).denominator for v in vals))


def test_linform_keeps_int_and_fraction_coefficients():
    f = LinForm(3, Fraction(1, 2))
    assert (type(f.a), type(f.b)) == (int, Fraction)
    g = LinForm(Fraction(4, 2), 0)
    assert (type(g.a), type(g.b)) == (Fraction, int)
    h = LinForm("1/2", "3")
    assert h == LinForm(Fraction(1, 2), 3) and type(h.b) is Fraction
    for a, b in ((0.5, 1), (1, 2.0)):
        with pytest.raises(ValidationError):
            LinForm(a, b)
    assert LinForm(2, 0) == LinForm(Fraction(2), Fraction(0))
    assert hash(LinForm(2, 0)) == hash(LinForm(Fraction(2), Fraction(0)))
    total = 5 * (LinForm(1, -2) - LinForm(3, 4)) + LinForm(0, 1)
    assert total == LinForm(-10, -29) and (type(total.a), type(total.b)) == (int, int)


def test_linform_evaluate_takes_exact_input_only():
    f = LinForm(Fraction(1, 3), -2)
    assert f.evaluate(1, 2) == Fraction(-11, 3)
    assert f.evaluate(Fraction(1, 10), Fraction(1, 7)) == Fraction(-53, 210)
    assert type(f.evaluate(3, 1)) is Fraction
    for lp, l in ((0.1, 1), (1, 0.5), (2.0, 1.0)):
        with pytest.raises(ValidationError):
            f.evaluate(lp, l)


@given(rationals(), rationals(), positive_rationals())
@example(Fraction(0), Fraction(-1), Fraction(1))  # a = 0: the sign of b decides
@example(Fraction(0), Fraction(1), Fraction(1))
def test_lp_axis_sign_is_the_sign_near_the_lp_axis(a, b, eps):
    assume(a != 0 or b != 0)
    f = LinForm(a, b)
    if a != 0 and b != 0:
        eps = min(eps, abs(a) / (2 * abs(b)))  # then |b * eps| < |a|
    for e in (eps, eps / 3, eps / 1000):
        assert locus._negative_at_lp_axis(f) == (f.evaluate(1, e) < 0)


def test_qpp_symbolic_matches_concrete():
    sym = qpp_symbolic(18, 7)
    conc = qpp(SplittingData(d=18, k=7, lp=3, l=1))
    evaluated = sym.map(lambda fm: fm.evaluate(3, 1))
    assert evaluated == conc


def test_fan_d3_k1_golden():
    fan = build_fan(3, 1)
    assert len(fan.cones) == 3
    assert [c.word for c in fan.cones] == [("T1", "T1"), ("T1",), ()]
    assert [c.rays for c in fan.cones] == [
        ((1, 0), (2, 1)), ((2, 1), (1, 2)), ((1, 2), (0, 1))]
    third = Fraction(1, 3)
    assert fan.cones[0].phi_sigma == (
        LinForm(0, 2), LinForm(0, 1), LinForm(third, -2 * third))
    assert fan.cones[1].phi_sigma == (
        LinForm(2 * third, 2 * third), LinForm(-third, 2 * third),
        LinForm(2 * third, -third))
    assert fan.cones[2].phi_sigma == (
        LinForm(2, 0), LinForm(-2 * third, third), LinForm(1, 0))


def test_fan_d3_k2_golden():
    fan = build_fan(3, 2)
    assert len(fan.cones) == 3
    assert {c.word for c in fan.cones} == {(), ("T1",), ("T1", "T2")}


def test_fan_d2_golden():
    fan = build_fan(2, 1)
    assert len(fan.cones) == 2
    assert [c.word for c in fan.cones] == [("T1",), ()]
    assert [c.rays for c in fan.cones] == [((1, 0), (1, 1)), ((1, 1), (0, 1))]


def test_boundary_rays_d3_k1_golden():
    rays = boundary_rays(build_fan(3, 1))
    assert set(rays) == {(("T1",), LinForm(-1, 2)), ((), LinForm(-2, 1))}


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("k_of_d", ["first", "last"])
def test_edge_k_fan_structure(d, k_of_d):
    k = 1 if k_of_d == "first" else d - 1
    if k < 1 or (d == 2 and k_of_d == "last"):
        pytest.skip("duplicate of k=1 for d=2")
    from math import gcd
    fan = build_fan(d, k)
    assert len(fan.cones) == d
    ray_seq = [fan.cones[0].rays[0]] + [c.rays[1] for c in fan.cones]
    assert ray_seq[0] == (1, 0) and ray_seq[-1] == (0, 1)
    # interior rays are the primitive representatives of the directions
    # (a, d-a), a = 1..d-1; for even d the middle one collapses to (1, 1)
    expected = {(a // gcd(a, d), (d - a) // gcd(a, d)) for a in range(1, d)}
    assert set(ray_seq[1:-1]) == expected
    forms = {f for _, f in boundary_rays(fan)}
    assert forms == {LinForm(a - d, a).primitive() for a in range(1, d)}


def test_fan_cone_cap():
    with pytest.raises(ConeCapExceeded):
        build_fan(5, 1, cap=2)


@pytest.mark.parametrize("d,k", [(2, 1), (5, 1), (13, 5), (41, 9)])
def test_fan_cone_cap_boundary(d, k):
    n = len(build_fan(d, k).cones)
    assert len(build_fan(d, k, cap=n).cones) == n
    with pytest.raises(ConeCapExceeded, match=f"^more than {n - 1} cones for d={d}, k={k}$"):
        build_fan(d, k, cap=n - 1)


def test_build_fan_matches_sampling_walk():
    for d, k in coprime_pairs(23) + [(40, 1), (41, 9), (60, 7), (89, 55)]:
        assert build_fan(d, k) == walk_fan(d, k), (d, k)


def test_cone_count_is_sum_of_partial_quotients():
    # the seed word's run lengths are the partial quotients of d/k, the
    # last one lowered by one, e.g. 41/9 = [4; 1, 1, 4] gives T1^4 T2 T1 T2^3
    for d, k in coprime_pairs(60):
        fan = build_fan(d, k)
        pq = partial_quotients(d, k)
        assert len(fan.cones) == sum(pq), (d, k)
        runs = [len(list(g)) for _, g in groupby(fan.cones[0].word)]
        assert runs == [n for n in pq[:-1] + [pq[-1] - 1] if n], (d, k)
    assert build_fan(41, 9).cones[0].word == ("T1",) * 4 + ("T2", "T1") + ("T2",) * 3


def test_build_fan_matches_the_fraction_oracle():
    for d, k in coprime_pairs(40) + [(89, 55), (1000, 1)]:
        fan, want = build_fan(d, k), oracle_build_fan(d, k)
        assert (fan.d, fan.k, len(fan.cones)) == (want.d, want.k, len(want.cones)), (d, k)
        for got, exp in zip(fan.cones, want.cones):
            assert got.word == exp.word, (d, k)
            assert got.inequalities == exp.inequalities, (d, k, got.word)
            assert got.rays == exp.rays, (d, k, got.word)
            assert got.phi_sigma == exp.phi_sigma, (d, k, got.word)
            assert all(type(c) is Fraction
                       for f in got.inequalities for c in (f.a, f.b)), (d, k, got.word)


def test_image_cones_match_the_fraction_oracle():
    fans = [build_fan(d, k) for d, k in coprime_pairs(23) + [(40, 1), (89, 55)]]
    fans += [walk_fan(d, k) for d, k in coprime_pairs(9) + [(41, 9)]]
    for fan in fans:
        assert image_cones(fan) == oracle_image_cones(fan), (fan.d, fan.k)


def test_fan_certificate_and_images_compute_on_ints(monkeypatch):
    walked = walk_fan(7, 3)
    values = []
    evaluate, primitive = LinForm.evaluate, locus._primitive

    def recorded_evaluate(self, lp, l):
        values.append(evaluate(self, lp, l))
        return values[-1]

    def recorded_primitive(ints):
        values.extend(ints)
        return primitive(ints)
    monkeypatch.setattr(LinForm, "evaluate", recorded_evaluate)
    monkeypatch.setattr(locus, "_primitive", recorded_primitive)
    fan = build_fan(41, 9)
    assert len(values) > 3 * len(fan.cones) and all(type(v) is int for v in values)
    for f in (fan, walked):
        del values[:]
        image_cones(f)
        assert len(values) >= 6 * len(f.cones) and all(type(v) is int for v in values)


def test_build_fan_at_d_1000():
    fan = build_fan(1000, 1)
    assert len(fan.cones) == 1000
    assert fan.cones[-1].rays == ((1, 999), (0, 1))


def _mutate_runs(monkeypatch, mutate):
    def mutated(*args):
        final, runs = reduce_triple(*args)
        return final, mutate(runs)
    monkeypatch.setattr(locus, "reduce_triple", mutated)


@pytest.mark.parametrize("mutate", [
    lambda runs: runs[:-1] + [[runs[-1][0], runs[-1][1] + 1, None]],
    lambda runs: runs + [["T1", 1, None]],
    lambda runs: [["T2" if runs[0][0] == "T1" else "T1"] + runs[0][1:]] + runs[1:],
    lambda runs: runs[::-1],
], ids=["longer-run", "extra-move", "flipped-move", "reversed"])
def test_certificate_rejects_mutated_seed_word(monkeypatch, mutate):
    _mutate_runs(monkeypatch, mutate)
    with pytest.raises(InternalInconsistency):
        build_fan(41, 9)


@pytest.mark.parametrize("mutate", [
    lambda word, fired, terminals: fired[:1] + (-fired[1],) + fired[2:],
    lambda word, fired, terminals: (fired[1], fired[0]) + fired[2:],
    lambda word, fired, terminals: tuple(
        -terminals[i][1 if move == "T2" else 0] for i, move in enumerate(word)),
    lambda word, fired, terminals: tuple(
        -terminals[i + 1][0 if move == "T2" else 1] for i, move in enumerate(word)),
], ids=["negated", "swapped", "other-coordinate", "next-triple"])
def test_certificate_rejects_mutated_fired_forms(monkeypatch, mutate):
    prefix_forms = locus._prefix_forms

    def mutated(q, runs):
        word, fired, terminals = prefix_forms(q, runs)
        return word, mutate(word, fired, terminals), terminals
    monkeypatch.setattr(locus, "_prefix_forms", mutated)
    with pytest.raises(InternalInconsistency):
        build_fan(41, 9)


def test_fan_certificate_reuses_the_rays(monkeypatch):
    calls = []
    kernel_direction = LinForm.kernel_direction

    def counted(self):
        calls.append(self)
        return kernel_direction(self)
    monkeypatch.setattr(LinForm, "kernel_direction", counted)
    fan = build_fan(40, 1)
    assert len(calls) == len(fan.cones) - 1 == 39


@pytest.mark.parametrize("mutate", [
    lambda fired, rays: (fired, rays[:3] + [rays[4], rays[3]] + rays[5:]),
    lambda fired, rays: (fired, rays[:1] + rays[2:-1] + rays[1:2] + rays[-1:]),
    lambda fired, rays: (fired, rays[:3] + [(rays[3][0] + 1, rays[3][1])] + rays[4:]),
    lambda fired, rays: (fired, rays[:3] + [(2 * rays[3][0], 2 * rays[3][1] + 1)] + rays[4:]),
    # the terminal forms still fit the rays; only the pairing of forms and rays breaks
    lambda fired, rays: (fired[:2] + (fired[3], fired[2]) + fired[4:], rays),
], ids=["swapped", "rotated", "shifted", "off-kernel", "swapped-forms"])
def test_certificate_rejects_mutated_rays(monkeypatch, mutate):
    certify = locus._certify_fan

    def mutated(fired, terminals, rays):
        fired, rays = mutate(fired, rays)
        certify(fired, terminals, rays)
    monkeypatch.setattr(locus, "_certify_fan", mutated)
    with pytest.raises(InternalInconsistency):
        build_fan(41, 9)


def test_fan_walk_is_contiguous():
    for d, k in ((4, 3), (5, 2), (6, 5), (7, 3)):
        fan = build_fan(d, k)
        for prev, nxt in zip(fan.cones, fan.cones[1:]):
            assert prev.rays[1] == nxt.rays[0]


@given(st.integers(min_value=2, max_value=7),
       st.data(),
       positive_rationals(max_num=30, max_den=7),
       positive_rationals(max_num=30, max_den=7))
def test_symbolic_agrees_with_concrete(d, data, lp, l):
    from math import gcd
    k = data.draw(st.integers(min_value=1, max_value=d - 1).filter(
        lambda k: gcd(k, d) == 1))
    fan = build_fan(d, k)
    interior = [c for c in fan.cones
                if all(f.evaluate(lp, l) > 0 for f in c.inequalities)]
    boundary = [c for c in fan.cones
                if any(f.evaluate(lp, l) == 0 for f in c.inequalities)]
    # the open cones tile the quadrant: a generic point is in exactly one
    assert len(interior) == 1 or (not interior and boundary)
    if not interior:
        return
    cone = interior[0]
    qred, word = selling_reduce(qpp(SplittingData(d=d, k=k, lp=lp, l=l)))
    assert word.moves == cone.word
    assert sigma_coords(qred) == tuple(f.evaluate(lp, l) for f in cone.phi_sigma)


@given(st.integers(min_value=2, max_value=7), st.data())
def test_adjacent_cones_agree_on_shared_rays(d, data):
    from math import gcd
    k = data.draw(st.integers(min_value=1, max_value=d - 1).filter(
        lambda k: gcd(k, d) == 1))
    fan = build_fan(d, k)
    for prev, nxt in zip(fan.cones, fan.cones[1:]):
        ray = prev.rays[1]
        # restrictions to the shared ray are linear in the ray parameter, so
        # comparing values at the primitive point compares the restrictions
        prev_values = sorted(f.evaluate(*ray) for f in prev.phi_sigma)
        next_values = sorted(f.evaluate(*ray) for f in nxt.phi_sigma)
        assert prev_values == next_values
        assert prev_values.count(0) == 1
        assert all(v > 0 for v in prev_values[1:])


@given(st.integers(min_value=2, max_value=7), st.data(),
       positive_rationals(max_num=8, max_den=4))
def test_ray_points_reconstruct_matching_dumbbells(d, data, t):
    from math import gcd
    k = data.draw(st.integers(min_value=1, max_value=d - 1).filter(
        lambda k: gcd(k, d) == 1))
    fan = build_fan(d, k)
    for cone in fan.cones[:-1]:
        a, b = cone.rays[1]
        lp, l = t * a, t * b
        trace = torelli_preimage(SplittingData(d=d, k=k, lp=lp, l=l))
        assert isinstance(trace.curve, DumbbellFamily)
        values = sorted(f.evaluate(lp, l) for f in cone.phi_sigma)
        assert values[0] == 0
        assert [trace.curve.lc1, trace.curve.lc2] == values[1:]


@given(st.integers(min_value=2, max_value=7),
       positive_rationals(max_num=12, max_den=4),
       positive_rationals(max_num=12, max_den=4))
def test_boundary_rays_flag_dumbbells(d, lp, l):
    fan = build_fan(d, 1)
    on_ray = any(f.evaluate(lp, l) == 0 for _, f in boundary_rays(fan))
    qred, _ = selling_reduce(qpp(SplittingData(d=d, k=1, lp=lp, l=l)))
    degenerate = 0 in sigma_coords(qred)
    assert on_ray == degenerate


def test_image_cones_d3_structure():
    fan = build_fan(3, 1)
    cones = image_cones(fan)
    assert len(cones) == 3
    # the lp-axis cone maps onto the plane spanned by (0,0,1) and (2,1,0)
    assert cones[0] == ((0, 0, 1), (2, 1, 0))
    for v1, v2 in cones:
        assert all(x >= 0 for x in v1) and all(x >= 0 for x in v2)


def test_canonical_image_is_relabeling_invariant():
    v1, v2 = (0, 0, 1), (2, 1, 0)
    assert canonical_image(v1, v2) == canonical_image(v2, v1)
    assert canonical_image((0, 1, 0), (1, 0, 2)) == canonical_image(v1, v2)


def _oriented(cones) -> list:
    """(normal, first ray, last ray) of each cone, as locus._arcs takes them."""
    out = []
    for v1, v2 in cones:
        n = _plane_normal(v1, v2)
        out.append((n, v1, v2) if locus._turn(v1, v2, n) > 0 else (n, v2, v1))
    return out


def test_arcs_are_a_canonical_form_of_the_union():
    a, e, b, c = (1, 0, 0), (2, 1, 0), (1, 1, 0), (0, 1, 0)  # turn order about (0, 0, 1)
    x, z = (1, 0, 1), (0, 0, 1)  # a plane with normal (0, 1, 0)

    def arcs(cones):
        got = locus._arcs(_oriented(cones))
        assert got == oracle_arcs(cones)
        return got
    whole = {(0, 0, 1): ((a, c),)}
    assert arcs([(c, a)]) == whole
    # split at interior rays, in every order, or with duplicates: the same arcs
    for cones in permutations([(a, e), (b, e), (c, b), (a, b)]):
        assert arcs(cones) == whole
    assert arcs([(a, c), (c, a), (b, e)]) == whole
    # overlapping and touching cones merge; disjoint cones stay separate
    assert arcs([(b, c), (a, b)]) == whole
    assert arcs([(e, c), (a, b)]) == whole
    assert arcs([(b, c), (a, e)]) == {(0, 0, 1): ((a, e), (b, c))}
    assert arcs([(z, x), (b, c), (a, x), (e, a)]) == {
        (0, 0, 1): ((a, e), (b, c)), (0, 1, 0): ((z, a),)}


def test_image_key_matches_the_oracle_for_every_fan_up_to_d_60():
    # compare_images decides by _key and reports canonical_image per cone, so
    # equal keys and canonical images give equal results for every pair
    for d, k in coprime_pairs(60):
        cones = image_cones(build_fan(d, k))
        assert locus._key(cones) == oracle_key(cones), (d, k)
        assert ([canonical_image(*c) for c in cones]
                == [oracle_canonical_image(*c) for c in cones]), (d, k)


def _octant_vector():
    vec = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)
    return vec.filter(any).map(locus._primitive)


@given(st.lists(st.tuples(_octant_vector(), _octant_vector()), min_size=1, max_size=8))
@example([((1, 1, 0), (0, 0, 1))])  # a plane that the transposition of 0 and 1 fixes
@example([((1, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 1, 2)), ((2, 2, 1), (1, 1, 0))])
@example([((1, 0, 1), (0, 1, 0)), ((1, 1, 1), (1, 0, 0))])  # each fixed by a transposition
@example([((1, 2, 3), (3, 2, 1)), ((1, 1, 1), (1, 0, 0))])
def test_image_key_matches_the_oracle_on_octant_unions(cones):
    assume(all(locus._cross3(v1, v2) != (0, 0, 0) for v1, v2 in cones))
    assert locus._key(cones) == oracle_key(cones)
    assert [canonical_image(*c) for c in cones] == [oracle_canonical_image(*c) for c in cones]


def test_image_key_takes_one_plane_normal_per_cone(monkeypatch):
    cones = image_cones(build_fan(41, 9))
    calls = []
    primitive = locus._primitive

    def counted(ints):
        calls.append(ints)
        return primitive(ints)
    monkeypatch.setattr(locus, "_primitive", counted)
    locus._key(cones)
    assert len(calls) == len(cones)


def test_compare_images_d3_golden():
    res = compare_images(build_fan(3, 1), build_fan(3, 2))
    assert res.equal
    assert len(res.images1) == len(res.images2) == 3


def test_compare_images_d4_golden():
    assert compare_images(build_fan(4, 1), build_fan(4, 3)).equal


def test_compare_images_requires_same_d():
    with pytest.raises(ValidationError):
        compare_images(build_fan(2, 1), build_fan(3, 1))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 1), (7, 4)])
def test_compare_images_reflexive(d, k):
    assert compare_images(build_fan(d, k), build_fan(d, k)).equal


def test_compare_images_matches_pool_scan():
    for d in range(2, 14):
        fans = {k: build_fan(d, k) for k in range(1, d) if gcd(k, d) == 1}
        keys = {k: image_key(fan) for k, fan in fans.items()}
        for k1 in fans:
            for k2 in fans:
                if k1 < k2:
                    want = pool_scan_equal(fans[k1], fans[k2])
                    assert compare_images(fans[k1], fans[k2]).equal == want, (d, k1, k2)
                    assert (keys[k1] == keys[k2]) == want, (d, k1, k2)
        orbits = {frozenset({k, d - k, pow(k, -1, d), d - pow(k, -1, d)}) for k in fans}
        assert len(set(keys.values())) == len(orbits), d


def _load_experiment():
    path = Path(__file__).resolve().parent.parent / "scripts" / "fan_image_experiment.py"
    spec = importlib.util.spec_from_file_location("fan_image_experiment", path)
    experiment = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(experiment)
    return experiment


def test_fan_image_experiment_smoke(capsys):
    assert _load_experiment().main(["--min-d", "2", "--max-d", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "pairs compared: 102, images equal: 38, different: 64"
    assert lines[-1] == "pairs against the rule k2 = +-k1^(+-1) mod d: 0"


def test_fan_image_experiment_output_is_pinned(capsys):
    assert _load_experiment().main(["--min-d", "2", "--max-d", "40", "--show-images"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e378224b65d042e09c5a386ee571b484e5698a0499f261166c93dd29b8a759f0")


@pytest.mark.parametrize("d", range(3, 7))
def test_compare_images_k_vs_complement(d):
    # qpp(d, d-k) = X^T qpp(d, k) X for X = [[1,-1],[0,-1]], so the two
    # symbolic pipelines land on the same reduced forms and images
    from math import gcd
    for k in range(1, d):
        if gcd(k, d) != 1 or d - k < k:
            continue
        assert compare_images(build_fan(d, k), build_fan(d, d - k)).equal


def test_inequalities_nonnegative_on_own_rays():
    for d, k in ((3, 1), (4, 1), (5, 2), (5, 3)):
        fan = build_fan(d, k)
        for cone in fan.cones:
            for ray in cone.rays:
                assert all(f.evaluate(*ray) >= 0 for f in cone.inequalities)
            mid = (cone.rays[0][0] + cone.rays[1][0],
                   cone.rays[0][1] + cone.rays[1][1])
            assert all(f.evaluate(*mid) > 0 for f in cone.inequalities)
