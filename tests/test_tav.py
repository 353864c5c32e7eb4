"""Tropical abelian varieties: validation, morphisms, descent, adjoints.

The running example throughout is the degree-2 gluing with circle lengths
(1, 3): product pairing diag(1, 3), glued pairing [[2,1],[1,2]], connecting
morphism msharp = [[2,1],[0,1]], mflat = [[1,-1],[0,2]].
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from conftest import integer_mats, pd_forms, positive_rationals, rationals, unimodular2
from splitjac.errors import (
    ImageConditionViolated,
    IncompatibleMorphism,
    InternalInconsistency,
    NonPositiveLength,
    NotIsogeny,
    NotPositiveDefinite,
    NotPrincipal,
    SingularMatrix,
    SplitJacError,
    UnsupportedRank,
    ValidationError,
)
from splitjac.matrices import Mat, adjugate, imat, inv2, is_positive_definite, qmat, snf2
from splitjac.tav import (
    InduceResult,
    Tav,
    TavMorphism,
    adjoint,
    check_polarization,
    circle,
    classify,
    compose,
    direct_sum,
    identity_morphism,
    induce_polarization,
    is_principal,
    multiplication,
    polarization_type,
    pullback_polarization,
)

EYE = Mat.identity(2)


def product_13() -> Tav:
    return direct_sum(circle(1), circle(3))


def glued_13() -> Tav:
    return Tav(imat(2, 1, 1, 2), EYE)


def connecting_13() -> TavMorphism:
    return TavMorphism(product_13(), glued_13(),
                       msharp=imat(2, 1, 0, 1), mflat=imat(1, -1, 0, 2))


def quotient_13() -> Tav:
    # rank-2 quotient with triangular pairing [[1, 1/2], [0, 3/2]]
    return Tav(qmat(1, Fraction(1, 2), 0, Fraction(3, 2)))


def quotient_map_13() -> TavMorphism:
    return TavMorphism(product_13(), quotient_13(),
                       msharp=EYE, mflat=imat(1, -1, 0, 2))


def test_circle_and_direct_sum():
    c = circle(Fraction(5, 2))
    assert c.rank == 1
    assert c.gram == Mat(((Fraction(5, 2),),))
    assert c.is_principally_polarized()
    pr = product_13()
    assert pr.pairing == qmat(1, 0, 0, 3)
    assert pr.polarization == EYE
    with pytest.raises(NonPositiveLength):
        circle(0)
    for length in (0.1, 2.0):  # exact input only
        with pytest.raises(ValidationError):
            circle(length)
    assert circle(Fraction(1, 10)).pairing == Mat(((Fraction(1, 10),),))
    with pytest.raises(UnsupportedRank):
        direct_sum(pr, circle(1))


def test_tav_validation():
    with pytest.raises(SingularMatrix):
        Tav(imat(1, 1, 1, 1))
    with pytest.raises(UnsupportedRank):
        Tav(Mat.identity(3))
    with pytest.raises(ValidationError):
        Tav(imat(1, 0, 0, 1), qmat("1/2", 0, 0, 1))  # non-integral polarization
    with pytest.raises(ValidationError):
        Tav(imat(1, 2, 0, 1), EYE)  # Gram not symmetric
    with pytest.raises(NotPositiveDefinite):
        Tav(imat(-1, 0, 0, 1), EYE)
    with pytest.raises(ValidationError):
        Tav(Mat(((0.5, 0), (0, 0.25))))  # float pairing
    with pytest.raises(ValidationError):
        Tav(imat(2, 1, 1, 2), Mat(((1.0, 0), (0, 1))))  # float polarization
    assert Tav(qmat("1/2", 0, 0, "1/4")).pairing == qmat("1/2", 0, 0, "1/4")


def test_polarization_type_goldens():
    assert polarization_type(EYE) == (1, 1)
    assert polarization_type(imat(2, 1, 0, 1)) == (1, 2)
    assert polarization_type(imat(2, 0, 0, 2)) == (2, 2)
    assert is_principal(EYE)
    assert not is_principal(imat(2, 1, 0, 1))


def test_morphism_compatibility_enforced():
    with pytest.raises(IncompatibleMorphism):
        TavMorphism(product_13(), glued_13(), msharp=EYE, mflat=EYE)
    f = connecting_13()
    assert f.torus_map == imat(2, 0, 1, 1)


def test_classify_goldens():
    cls = classify(connecting_13())
    assert cls.surjective and cls.finite and cls.isogeny
    assert not cls.injective
    assert cls.degree == 2
    zero = TavMorphism(product_13(), product_13(),
                       msharp=imat(0, 0, 0, 0), mflat=imat(0, 0, 0, 0))
    zcls = classify(zero)
    assert not zcls.surjective and not zcls.finite and zcls.degree is None


def test_classify_injective_non_surjective():
    # rank-1 circle into the product along a primitive vector
    f = TavMorphism(circle(1), product_13(),
                    msharp=Mat(((1, 0),)), mflat=Mat(((1,), (0,))))
    cls = classify(f)
    assert cls.injective and cls.finite and not cls.surjective
    assert not cls.isogeny


def test_pullback_golden():
    f = connecting_13()
    assert pullback_polarization(f, EYE) == qmat(2, 0, 0, 2).to_int()
    with pytest.raises(NotIsogeny):
        pullback_polarization(
            TavMorphism(product_13(), product_13(),
                        msharp=imat(0, 0, 0, 0), mflat=imat(0, 0, 0, 0)),
            EYE)


def test_induce_golden_inducible():
    res = induce_polarization(quotient_map_13(), imat(2, 0, 0, 2))
    assert res.inducible
    assert res.zeta2 == imat(2, 1, 0, 1)
    assert polarization_type(res.zeta2) == (1, 2)


def test_induce_golden_not_inducible():
    res = induce_polarization(quotient_map_13(), EYE)
    assert not res.inducible
    assert res.zeta2 is None
    assert res.m == qmat(1, Fraction(1, 2), 0, Fraction(1, 2))


def test_induce_image_condition():
    with pytest.raises(ImageConditionViolated):
        induce_polarization(connecting_13(), EYE)


def test_induce_requires_isogeny_shape():
    zero = TavMorphism(product_13(), product_13(),
                       msharp=imat(0, 0, 0, 0), mflat=imat(0, 0, 0, 0))
    with pytest.raises(NotIsogeny):
        induce_polarization(zero, EYE)


def test_adjoint_golden():
    f = connecting_13()
    adj = adjoint(f, EYE, EYE)
    assert adj.msharp == imat(1, -1, 0, 2)
    assert adj.mflat == imat(2, 1, 0, 1)
    assert adj.torus_map == imat(1, 0, -1, 2)
    comp = compose(adj, f)
    assert comp.msharp == imat(2, 0, 0, 2)
    assert comp.mflat == imat(2, 0, 0, 2)


def test_adjoint_requires_principal():
    f = connecting_13()
    with pytest.raises(NotPrincipal):
        adjoint(f, imat(2, 0, 0, 2), EYE)


def _bad_polarizations(pairing):
    """A non-integral, an indefinite and a wrongly shaped candidate for the pairing."""
    return [(qmat(Fraction(1, 2), 0, 0, 1), ValidationError),
            (imat(1, 0, 0, -1) @ pairing, NotPositiveDefinite),  # Gram congruent to diag(1, -1)
            (Mat(((1,),)), ValidationError)]


@pytest.mark.parametrize("case", range(3), ids=["non-integral", "indefinite", "wrong-shape"])
def test_public_entry_points_reject_bad_polarizations(case):
    f = connecting_13()
    src, err = _bad_polarizations(f.source.pairing)[case]
    tgt, tgt_err = _bad_polarizations(f.target.pairing)[case]
    with pytest.raises(tgt_err):
        pullback_polarization(f, tgt)
    with pytest.raises(err):
        induce_polarization(quotient_map_13(), src)
    with pytest.raises(err):
        adjoint(f, src, EYE)
    with pytest.raises(tgt_err):
        adjoint(f, EYE, tgt)


@given(pd_forms(), st.integers(min_value=1, max_value=6))
def test_multiplication_pullback_scales_by_square(p, n):
    t = Tav(p, EYE)
    f = multiplication(t, n)
    assert classify(f).degree == n * n
    assert pullback_polarization(f, EYE) == EYE.scale(n * n)


@given(pd_forms(), st.integers(min_value=2, max_value=6))
def test_multiplication_not_injective(p, n):
    t = Tav(p, EYE)
    cls = classify(multiplication(t, n))
    assert cls.isogeny and not cls.injective
    assert classify(multiplication(t, 1)).injective


@given(pd_forms(), unimodular2())
def test_basis_change_is_degree_one_isomorphism(p, u):
    src = Tav(p, EYE)
    tgt = Tav(u.T @ p @ u, EYE)
    f = TavMorphism(src, tgt, msharp=u, mflat=inv_unimodular(u))
    cls = classify(f)
    assert cls.injective and cls.surjective and cls.degree == 1
    adj = adjoint(f, EYE, EYE)
    assert compose(adj, f).msharp == EYE
    assert compose(adj, f).mflat == EYE


def inv_unimodular(u: Mat) -> Mat:
    d = u.det()
    assert abs(d) == 1
    return imat(u[1, 1] * d, -u[0, 1] * d, -u[1, 0] * d, u[0, 0] * d)


@given(pd_forms(), st.integers(min_value=1, max_value=5))
def test_identity_is_neutral_for_composition(p, n):
    t = Tav(p, EYE)
    f = multiplication(t, n)
    eye = identity_morphism(t)
    assert compose(eye, f) == f
    assert compose(f, eye) == f


@given(pd_forms(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
def test_degree_multiplicative(p, m, n):
    t = Tav(p, EYE)
    comp = compose(multiplication(t, m), multiplication(t, n))
    assert classify(comp).degree == (m * n) ** 2


@given(positive_rationals(), positive_rationals())
def test_product_polarization_principal(a, b):
    pr = direct_sum(circle(a), circle(b))
    assert pr.is_principally_polarized()
    assert pr.gram == Mat(((a, 0), (0, b))).map(Fraction)


# --- differential tests: the integer-scaled certificates against the Fraction code they replace ---

def oracle_check_polarization(z, pairing):
    """check_polarization on the rational Gram matrix z^T @ pairing."""
    if z.shape != pairing.shape:
        raise ValidationError(f"polarization shape {z.shape} != pairing shape {pairing.shape}")
    if not z.is_integral():
        raise ValidationError("polarization must be an integer matrix")
    g = z.T @ pairing
    if not g.is_symmetric():
        raise ValidationError(f"polarization Gram matrix not symmetric: {g.rows}")
    if not is_positive_definite(g):
        raise NotPositiveDefinite(f"polarization Gram matrix not positive definite: {g.rows}")


def oracle_polarization_type(z):
    return (abs(z[0, 0]),) if z.shape == (1, 1) else snf2(z).invariant_factors


def oracle_morphism(source, target, msharp, mflat):
    """TavMorphism's compatibility test on the rational pairings."""
    msharp, mflat = msharp.to_int(), mflat.to_int()
    lhs = msharp.T @ source.pairing
    rhs = target.pairing @ mflat
    if lhs != rhs:
        raise IncompatibleMorphism(
            f"msharp^T @ pairing_src = {lhs.rows} != pairing_tgt @ mflat = {rhs.rows}")
    return msharp, mflat


def oracle_induce_polarization(f, z1):
    """induce_polarization by the two rational inverses inv2(msharp) and inv2(mflat)."""
    oracle_check_polarization(z1, f.source.pairing)
    if f.source.rank != f.target.rank:
        raise NotIsogeny("ranks differ")
    if f.mflat.det() == 0:
        raise NotIsogeny("mflat not invertible")
    if f.msharp.det() == 0:
        raise ImageConditionViolated("msharp not invertible: image cannot contain im(z1)")
    a = inv2(f.msharp) @ z1
    if not a.is_integral():
        raise ImageConditionViolated(
            f"im(z1) not contained in im(msharp): msharp^-1 @ z1 = {a.rows}")
    m = a @ inv2(f.mflat)
    if not m.is_integral():
        return InduceResult(m=m, zeta2=None)
    zeta2 = m.to_int()
    oracle_check_polarization(zeta2, f.target.pairing)
    if f.msharp @ zeta2 @ f.mflat != z1:
        raise InternalInconsistency("induced polarization does not pull back to z1")
    return InduceResult(m=m, zeta2=zeta2)


def oracle_adjoint(f, z1, z2):
    """adjoint by the rational inverse inv2(z1); returns (msharp, mflat) of the adjoint."""
    oracle_check_polarization(z1, f.source.pairing)
    oracle_check_polarization(z2, f.target.pairing)
    if any(x != 1 for x in oracle_polarization_type(z1)):
        raise NotPrincipal(f"source polarization type {oracle_polarization_type(z1)}")
    if any(x != 1 for x in oracle_polarization_type(z2)):
        raise NotPrincipal(f"target polarization type {oracle_polarization_type(z2)}")
    z1_inv = inv2(z1)
    msharp_adj = z2 @ f.mflat @ z1_inv
    mflat_adj = z1_inv @ f.msharp @ z2
    if not (msharp_adj.is_integral() and mflat_adj.is_integral()):
        raise InternalInconsistency(
            f"adjoint matrices not integral: {msharp_adj.rows}, {mflat_adj.rows}")
    return oracle_morphism(f.target, f.source, msharp_adj, mflat_adj)


def outcome(fn, *args):
    """("ok", result) or (exception class, message): what a differential test compares."""
    try:
        return "ok", fn(*args)
    except SplitJacError as exc:
        return type(exc), str(exc)


ranks = st.sampled_from((1, 2))


@st.composite
def int_square(draw, rank, bound=4, nonsingular=False):
    m = draw(integer_mats(rank, rank, -bound, bound))
    assume(not nonsingular or m.det() != 0)
    return m


@st.composite
def definite_gram(draw, rank):
    return draw(pd_forms()) if rank == 2 else Mat(((draw(positive_rationals()),),))


@st.composite
def rational_pairing(draw, rank):
    p = Mat(tuple(tuple(draw(rationals(max_den=6)) for _ in range(rank)) for _ in range(rank)))
    assume(p.det() != 0)
    return p


@st.composite
def polarization_cases(draw):
    """(z, pairing): a random pairing, or z^-T @ G for a definite G (z passes) or for -G (fails)."""
    rank = draw(ranks)
    z = draw(int_square(rank))
    if z.det() == 0 or draw(st.booleans()):
        return z, draw(rational_pairing(rank))
    return z, inv2(z).T @ draw(definite_gram(rank)).scale(draw(st.sampled_from((1, -1))))


@given(polarization_cases())
def test_check_polarization_matches_the_fraction_oracle(case):
    assert outcome(check_polarization, *case) == outcome(oracle_check_polarization, *case)


def morphism_matrices(*args):
    f = TavMorphism(*args)
    return f.msharp, f.mflat


def adjoint_matrices(*args):
    g = adjoint(*args)
    return g.msharp, g.mflat


@st.composite
def morphism_cases(draw):
    """(source, target, msharp, mflat); the target pairing is compatible half the time."""
    rank = draw(ranks)
    msharp, mflat = draw(int_square(rank)), draw(int_square(rank, nonsingular=True))
    source = Tav(draw(rational_pairing(rank)))
    pairing = msharp.T @ source.pairing @ inv2(mflat)
    assume(pairing.det() != 0)
    target = Tav(pairing if draw(st.booleans()) else draw(rational_pairing(rank)))
    return source, target, msharp, mflat


@given(morphism_cases())
def test_tav_morphism_matches_the_fraction_oracle(case):
    assert outcome(morphism_matrices, *case) == outcome(oracle_morphism, *case)


@st.composite
def descent_cases(draw):
    """(f, z1) of two kinds.

    Pullback kind: z1 is the pullback z0 of a target polarization, z0 / gcd(z0)
    times 1..3, or random.  Scalar kind: the source is a product of circles, so
    every c * identity is a polarization on it, and msharp, mflat are random.
    """
    rank = draw(ranks)
    msharp = draw(int_square(rank, nonsingular=True))
    mflat = draw(int_square(rank, bound=3, nonsingular=True))
    if draw(st.booleans()):
        source = Tav(Mat(tuple(tuple(draw(positive_rationals()) if i == j else 0
                                     for j in range(rank)) for i in range(rank))))
        f = TavMorphism(source, Tav(msharp.T @ source.pairing @ inv2(mflat)), msharp, mflat)
        return f, Mat.identity(rank).scale(draw(st.integers(1, 12)))
    zeta = draw(int_square(rank, nonsingular=True))
    gram = draw(definite_gram(rank))
    target = Tav(inv2(zeta).T @ gram, zeta)
    f = TavMorphism(Tav(inv2(msharp).T @ target.pairing @ mflat), target, msharp, mflat)
    z0 = msharp @ zeta @ mflat
    kind = draw(st.sampled_from(("pullback", "primitive", "random")))
    if kind == "pullback":
        return f, z0
    if kind == "primitive":
        g, c = gcd(*z0.rows[0], *z0.rows[-1]), draw(st.integers(1, 3))
        return f, z0.map(lambda x: x // g * c)
    return f, draw(int_square(rank))


@given(descent_cases())
def test_induce_polarization_matches_the_fraction_oracle(case):
    got, want = outcome(induce_polarization, *case), outcome(oracle_induce_polarization, *case)
    assert got == want
    if got[0] == "ok":
        assert got[1].m.rows == want[1].m.rows  # including a failed descent's rational m


@st.composite
def adjoint_cases(draw):
    """(f, z1, z2): principal z1, z2 on a morphism of degree det(b) > 0, or random z1, z2.

    With source pairing z1^-T @ G, msharp = z1 @ b and mflat = adj(b), the target
    pairing is b^T G b / det(b), for which the identity is a principal polarization.
    """
    rank = draw(ranks)
    z1 = draw(unimodular2()) if rank == 2 else Mat(((1,),))
    gram = draw(definite_gram(rank))
    b = draw(int_square(rank, nonsingular=True).filter(lambda m: m.det() > 0))
    source = Tav(inv2(z1).T @ gram)
    target = Tav(b.T @ gram @ b.scale(1 / Fraction(b.det())))
    f = TavMorphism(source, target, z1 @ b, adjugate(b))
    z2 = Mat.identity(rank)
    kind = draw(st.sampled_from(("principal", "scaled", "negated", "random")))
    if kind == "scaled":
        z1, z2 = z1.scale(draw(st.integers(1, 3))), z2.scale(draw(st.integers(1, 3)))
    elif kind == "negated":
        z1, z2 = (-z1, z2) if draw(st.booleans()) else (z1, -z2)
    elif kind == "random":
        z1, z2 = draw(int_square(rank)), draw(int_square(rank))
    return f, z1, z2


@given(adjoint_cases())
def test_adjoint_matches_the_fraction_oracle(case):
    assert outcome(adjoint_matrices, *case) == outcome(oracle_adjoint, *case)


@given(st.one_of(integer_mats(), integer_mats(lo=-2, hi=2), integer_mats(lo=0, hi=0),
                 integer_mats(lo=-3, hi=3).map(lambda m: imat(m[0, 0], m[0, 1],
                                                              2 * m[0, 0], 2 * m[0, 1]))))
def test_polarization_type_is_the_smith_form(z):
    assert polarization_type(z) == snf2(z).invariant_factors


@pytest.mark.parametrize("z", [Mat(((Fraction(3, 2),),)), qmat(Fraction(3, 2), 0, 0, 1)],
                         ids=["1x1", "2x2"])
def test_polarization_type_rejects_a_non_integral_matrix(z):
    with pytest.raises(ValidationError):
        polarization_type(z)
    with pytest.raises(ValidationError):
        is_principal(z)
