"""End-to-end acceptance checks, one test per headline guarantee.

The seven tests below freeze the results the package is built around: the
degree-18 worked reduction chain, the unit-length degree-2 bundle, the two
determinant-15 dumbbell families, the two degree-3 fans with their common
image, a seeded randomized invariant suite, the k=1 boundary-witness grid,
and the closed-form edge fans.  Every comparison is exact rational
arithmetic; the heavier sweeps also assert a wall-clock budget so that a
performance regression fails loudly instead of silently.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from splitjac import (
    DumbbellFamily,
    LinForm,
    Mat,
    SplittingData,
    ThetaCurve,
    boundary_witness,
    build_covers,
    build_diagram,
    build_fan,
    build_jpp,
    compare_images,
    congruence_act,
    fd_representative,
    in_fundamental_domain,
    induce_polarization,
    period_matrix,
    polarization_type,
    pullback_polarization,
    selling_params,
    selling_reduce,
    snf2,
    stab_sigma,
    torelli_preimage,
)
from splitjac.matrices import imat, qmat
from splitjac.selling import SFLIP

F = Fraction


# ---------------------------------------------------------------------------
# 1. the degree-18 worked chain, end to end, in under a second


def test_01_degree_18_worked_chain():
    start = time.monotonic()
    trace = torelli_preimage(SplittingData(d=18, k=7, lp=F(3), l=F(1)))
    assert trace.qpp == qmat(54, -21, -21, F(74, 9))
    params = selling_params(trace.qred)
    assert sorted((params.p12, params.p13, params.p23)) == [
        F(-5, 3),
        F(-11, 9),
        F(-1, 3),
    ]
    assert trace.word.counts() == (1, 2)
    assert trace.qred == qmat(F(26, 9), F(-5, 3), F(-5, 3), 2)
    assert trace.qtilde == qmat(F(14, 9), F(-1, 3), F(-1, 3), 2)
    assert trace.curve == ThetaCurve(le=F(11, 9), le1=F(5, 3), le2=F(1, 3))
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. the unit-length degree-2 bundle: curve, model, covers, and diagram


def test_02_unit_length_degree_2_bundle():
    sd = SplittingData(d=2, k=1, lp=F(1), l=F(3))
    trace = torelli_preimage(sd)
    assert trace.curve == ThetaCurve(le=F(1), le1=F(1), le2=F(1))

    model = build_jpp(sd)
    assert model.gram == imat(2, 1, 1, 2)
    assert model.zeta == imat(2, 1, 0, 1)

    covers = build_covers(trace)
    assert tuple(e.slope for e in covers.to_first.edges) == (1, 0, 1)
    assert tuple(abs(e.slope) for e in covers.to_second.edges) == (1, 2, 1)

    diagram = build_diagram(sd)
    assert diagram.phitilde @ diagram.phi == imat(2, 0, 0, 2)


# ---------------------------------------------------------------------------
# 3. the two determinant-15 dumbbell families


def test_03_dumbbell_families_preserve_determinant():
    expected = {
        16: DumbbellFamily(lc1=F(1, 2), lc2=F(30)),
        24: DumbbellFamily(lc1=F(1, 3), lc2=F(45)),
    }
    for d, curve in expected.items():
        trace = torelli_preimage(SplittingData(d=d, k=1, lp=F(3), l=F(5)))
        assert trace.curve == curve
        pm = period_matrix(trace.curve)
        for form in (trace.qpp, trace.qred, trace.qtilde, pm.q):
            assert form.det() == 15


# ---------------------------------------------------------------------------
# 4. degree-3 fans: shape, hand-computed edge maps, and a common image


def _matches_with_one_relabel(actual, expected):
    """True when a single permutation of edge slots aligns every cone pair."""
    for perm in itertools.permutations(range(3)):
        if all(
            tuple(got) == tuple(want[i] for i in perm)
            for got, want in zip(actual, expected)
        ):
            return True
    return False


def test_04_degree_3_fans_and_common_image():
    start = time.monotonic()
    fan1 = build_fan(3, 1)
    fan2 = build_fan(3, 2)

    # Edge-length maps per cone, hand-computed from the three reduction
    # branches; listed in walk order (first-length axis toward second).
    third = F(1, 3)
    expected1 = [
        (LinForm(0, 2), LinForm(0, 1), LinForm(third, -2 * third)),
        (LinForm(2 * third, 2 * third), LinForm(-third, 2 * third), LinForm(2 * third, -third)),
        (LinForm(2, 0), LinForm(-2 * third, third), LinForm(1, 0)),
    ]
    expected2 = [
        (LinForm(0, 1), LinForm(0, 2), LinForm(third, -2 * third)),
        (LinForm(-third, 2 * third), LinForm(2 * third, 2 * third), LinForm(2 * third, -third)),
        (LinForm(1, 0), LinForm(-2 * third, third), LinForm(2, 0)),
    ]
    for fan, expected in ((fan1, expected1), (fan2, expected2)):
        assert len(fan.cones) == 3
        rays = {ray for cone in fan.cones for ray in cone.rays}
        assert rays - {(1, 0), (0, 1)} == {(2, 1), (1, 2)}
        assert _matches_with_one_relabel([c.phi_sigma for c in fan.cones], expected)

    assert compare_images(fan1, fan2).equal
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 5. seeded randomized invariants, >= 200 cases per group, under a minute

CASES = 200


def _rand_fraction(rng, hi=24, max_den=8):
    return F(rng.randint(1, hi), rng.randint(1, max_den))


def _rand_splitting(rng, max_d=12):
    d = rng.randint(2, max_d)
    k = rng.choice([j for j in range(1, d) if gcd(j, d) == 1])
    return SplittingData(d=d, k=k, lp=_rand_fraction(rng), l=_rand_fraction(rng))


_LETTERS = (
    imat(1, 0, 1, 1),
    imat(1, 1, 0, 1),
    imat(1, 0, -1, 1),
    imat(1, -1, 0, 1),
    imat(1, 0, 0, -1),
    imat(0, 1, 1, 0),
)


def _rand_unimodular(rng, max_len=8):
    x = Mat.identity(2)
    for _ in range(rng.randint(0, max_len)):
        x = x @ rng.choice(_LETTERS)
    return x


def _rand_sigma_triple(rng):
    l1 = _rand_fraction(rng, hi=12, max_den=6)
    l2 = _rand_fraction(rng, hi=12, max_den=6)
    l3 = F(rng.randint(0, 12), rng.randint(1, 6))
    return l1, l2, l3


def _form_from_sigma(l1, l2, l3):
    return qmat(l1 + l3, -l3, -l3, l2 + l3)


def _rand_pd_form(rng):
    return congruence_act(_rand_unimodular(rng), _form_from_sigma(*_rand_sigma_triple(rng)))


def _snf_group(rng):
    for _ in range(CASES):
        m = Mat(
            (
                (rng.randint(-99, 99), rng.randint(-99, 99)),
                (rng.randint(-99, 99), rng.randint(-99, 99)),
            )
        )
        s = snf2(m)
        assert s.u @ m @ s.v == s.d
        assert abs(s.u.det()) == 1 and abs(s.v.det()) == 1
        g1, g2 = s.d[0, 0], s.d[1, 1]
        if g1 == 0:
            assert g2 == 0
        else:
            assert g2 % g1 == 0
        assert g1 * g2 == abs(m.det())


def _congruence_group(rng):
    for _ in range(CASES):
        q = _rand_pd_form(rng)
        x, y = _rand_unimodular(rng), _rand_unimodular(rng)
        assert congruence_act(x, q).det() == q.det()
        assert congruence_act(y, congruence_act(x, q)) == congruence_act(x @ y, q)


def _selling_group(rng):
    for _ in range(CASES):
        q = _rand_pd_form(rng)
        if q[0, 1] > 0:
            q = congruence_act(SFLIP, q)
        qred, word = selling_reduce(q)
        assert congruence_act(word.matrix(), q) == qred
        again, word2 = selling_reduce(qred)
        assert again == qred and word2.moves == ()

        l1, l2, l3 = _rand_sigma_triple(rng)
        form = _form_from_sigma(l1, l2, l3)
        assert in_fundamental_domain(form) == (l3 <= l1 <= l2)
        if len({l1, l2, l3}) == 3:
            hits = [x for x in stab_sigma() if in_fundamental_domain(congruence_act(x, form))]
            assert len(hits) == 1


def _induced_polarization_group(rng):
    for _ in range(CASES):
        sd = _rand_splitting(rng)
        model = build_jpp(sd)
        assert model.zeta == imat(sd.d, sd.k, 0, 1)
        scale = rng.randint(1, 9)
        z1 = imat(sd.d * scale, 0, 0, sd.d * scale)
        induced = induce_polarization(model.quotient_map, z1)
        assert pullback_polarization(model.quotient_map, induced.zeta2) == z1
        assert polarization_type(induced.zeta2) == (scale, scale * sd.d)
        gram = induced.zeta2.T @ model.quotient.pairing
        assert gram == gram.T
        assert gram[0, 0] > 0 and gram.det() > 0


def _round_trip_group(rng):
    for _ in range(CASES):
        trace = torelli_preimage(_rand_splitting(rng))
        flipped = congruence_act(SFLIP, period_matrix(trace.curve).q)
        assert fd_representative(flipped)[0] == trace.qtilde


def _diagram_group(rng):
    for _ in range(CASES):
        sd = _rand_splitting(rng)
        dg = build_diagram(sd)
        assert (dg.g2 @ dg.f1)[0, 0] == 0
        assert (dg.g1 @ dg.f2)[0, 0] == 0
        assert (dg.g1 @ dg.f1)[0, 0] == sd.d
        assert (dg.g2 @ dg.f2)[0, 0] == sd.d
        assert len(dg.kernel_normalized) == sd.d
        targets = {F(j, sd.d) for j in range(sd.d)}
        assert {u for u, _ in dg.kernel_normalized} == targets
        assert {v for _, v in dg.kernel_normalized} == targets


def _cover_group(rng):
    for _ in range(CASES):
        sd = _rand_splitting(rng)
        trace = torelli_preimage(sd)
        covers = build_covers(trace)
        assert covers.to_first.target_length == sd.lp
        assert covers.to_second.target_length == sd.l
        for cover in (covers.to_first, covers.to_second):
            assert cover.degree == sd.d
            slopes = {e.edge: e.slope for e in cover.edges}
            assert all(isinstance(s, int) for s in slopes.values())
            if isinstance(trace.curve, ThetaCurve):
                assert slopes["e"] == slopes["e1"] + slopes["e2"]
            else:
                assert slopes["bridge"] == 0
            mass = sum(
                F(e.slope) ** 2 * e.length for e in cover.edges if e.length is not None
            )
            assert mass == cover.degree * cover.target_length


def test_05_randomized_invariant_suite():
    start = time.monotonic()
    rng = random.Random(20260814)
    _snf_group(rng)
    _congruence_group(rng)
    _selling_group(rng)
    _induced_polarization_group(rng)
    _round_trip_group(rng)
    _diagram_group(rng)
    _cover_group(rng)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. the k=1 boundary witness agrees with the curve type on a dense grid


def test_06_boundary_witness_grid():
    start = time.monotonic()
    lengths = sorted({F(n, m) for n in range(1, 9) for m in range(1, 9)})
    assert len(lengths) == 43
    disagreements = 0
    for d in range(2, 13):
        for lp in lengths:
            for l in lengths:
                sd = SplittingData(d=d, k=1, lp=lp, l=l)
                witness = boundary_witness(sd)
                dumbbell = isinstance(torelli_preimage(sd).curve, DumbbellFamily)
                if (witness is not None) != dumbbell:
                    disagreements += 1
    assert disagreements == 0
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 7. edge fans (k = 1 and k = d - 1) have the closed-form ray sequence


def _primitive(a, b):
    g = gcd(a, b)
    return (a // g, b // g)


def test_07_edge_fans_have_closed_form_rays():
    for d in range(2, 11):
        for k in sorted({1, d - 1}):
            fan = build_fan(d, k)
            assert len(fan.cones) == d
            seq = (
                [(1, 0)]
                + [_primitive(a, d - a) for a in range(d - 1, 0, -1)]
                + [(0, 1)]
            )
            for cone, lo, hi in zip(fan.cones, seq, seq[1:]):
                assert cone.rays == (lo, hi)
