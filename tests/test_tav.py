"""Tropical abelian varieties: validation, morphisms, descent, adjoints.

The running example throughout is the degree-2 gluing with circle lengths
(1, 3): product pairing diag(1, 3), glued pairing [[2,1],[1,2]], connecting
morphism msharp = [[2,1],[0,1]], mflat = [[1,-1],[0,2]].
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import pd_forms, positive_rationals, unimodular2
from splitjac.errors import (
    ImageConditionViolated,
    IncompatibleMorphism,
    NonPositiveLength,
    NotIsogeny,
    NotPositiveDefinite,
    NotPrincipal,
    SingularMatrix,
    UnsupportedRank,
    ValidationError,
)
from splitjac.matrices import Mat, imat, qmat
from splitjac.tav import (
    Tav,
    TavMorphism,
    adjoint,
    circle,
    classify,
    compose,
    direct_sum,
    dual_morphism,
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


@given(pd_forms())
def test_dual_morphism_involution(p):
    t = Tav(p, EYE)
    f = multiplication(t, 3)
    dd = dual_morphism(dual_morphism(f))
    assert dd.msharp == f.msharp and dd.mflat == f.mflat
    assert dd.source.pairing == f.source.pairing


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
