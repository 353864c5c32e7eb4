"""Splitting data, the glued rank-2 variety, and the two-circle diagram."""

import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import splitting_data
import splitjac.splitting as splitting
import splitjac.tav as tav
from splitjac.errors import InternalInconsistency, NonPositiveLength, ValidationError
from splitjac.matrices import Mat, col2, imat, inv2, qmat, row2
from splitjac.splitting import (
    JppModel,
    SplitDiagram,
    SplittingData,
    build_diagram,
    build_jpp,
    check_dk,
    kernel_numerators,
    qpp,
    qpp_raw,
)
from splitjac.tav import (
    InduceResult,
    Tav,
    TavMorphism,
    circle,
    classify,
    direct_sum,
    induce_polarization,
    polarization_type,
    pullback_polarization,
)


def test_splitting_data_validation():
    with pytest.raises(ValidationError):
        SplittingData(d=1, k=1, lp=1, l=1)
    with pytest.raises(ValidationError):
        SplittingData(d=4, k=2, lp=1, l=1)  # gcd(k, d) != 1
    with pytest.raises(ValidationError):
        SplittingData(d=3, k=3, lp=1, l=1)  # k out of range
    with pytest.raises(ValidationError):
        SplittingData(d=3, k=0, lp=1, l=1)
    with pytest.raises(NonPositiveLength):
        SplittingData(d=2, k=1, lp=0, l=1)
    with pytest.raises(NonPositiveLength):
        SplittingData(d=2, k=1, lp=1, l=Fraction(-1, 2))


def test_splitting_data_takes_exact_input_only():
    for d, k in ((True, 1), (2, True), (3, True)):
        with pytest.raises(ValidationError):
            SplittingData(d=d, k=k, lp=1, l=1)
        with pytest.raises(ValidationError):
            check_dk(d, k)
    for lengths in ({"lp": 0.1, "l": 1}, {"lp": 1, "l": 0.5}, {"lp": 2.0, "l": 1}):
        with pytest.raises(ValidationError):
            SplittingData(d=3, k=1, **lengths)
    assert SplittingData(d=3, k=1, lp=Fraction(1, 10), l=1).lp == Fraction(1, 10)


def test_qpp_goldens():
    sd = SplittingData(d=18, k=7, lp=3, l=1)
    assert qpp(sd) == qmat(54, -21, -21, Fraction(74, 9))
    assert qpp(sd).det() == 3
    sd2 = SplittingData(d=2, k=1, lp=1, l=3)
    assert qpp_raw(sd2) == qmat(2, 1, 1, 2)
    assert qpp(sd2) == qmat(2, -1, -1, 2)


@given(splitting_data())
def test_qpp_det_is_product_of_lengths(sd):
    q = qpp(sd)
    assert q.det() == sd.lp * sd.l
    assert q[0, 1] < 0
    assert q[0, 0] == sd.d * sd.lp
    assert q.is_symmetric()


def test_build_jpp_golden():
    jm = build_jpp(SplittingData(d=2, k=1, lp=1, l=3))
    assert jm.zeta == imat(2, 1, 0, 1)
    assert jm.gram == qmat(2, 1, 1, 2)
    assert jm.qflat == imat(1, -1, 0, 2)
    assert jm.jpp.is_principally_polarized()
    assert jm.basis_b == ((2, 1), (1, 2))
    assert polarization_type(jm.zeta) == (1, 2)


@given(splitting_data(max_d=10, max_num=12, max_den=6))
def test_build_jpp_properties(sd):
    jm = build_jpp(sd)
    assert jm.gram == qpp_raw(sd)
    assert polarization_type(jm.zeta) == (1, sd.d)
    cls = classify(jm.splitting_isogeny)
    assert cls.isogeny and cls.degree == sd.d
    assert cls.injective == (sd.d == 1)
    qcls = classify(jm.quotient_map)
    assert qcls.isogeny and qcls.degree == sd.d


def oracle_build_jpp(sd):
    """build_jpp as it was before each polarization was certified once: it re-checks all of them."""
    d, k = sd.d, sd.k
    prod = direct_sum(circle(sd.lp), circle(sd.l))
    qflat = imat(1, -k, 0, d)
    pairing_g = prod.pairing @ inv2(qflat.map(Fraction))
    quotient = Tav(pairing_g)
    qmor = TavMorphism(prod, quotient, Mat.identity(2), qflat)

    dd = imat(d, 0, 0, d)
    res = induce_polarization(qmor, dd)
    zeta_closed = (dd @ inv2(qflat.map(Fraction))).to_int()
    if res.zeta2 is None or res.zeta2 != zeta_closed:
        raise InternalInconsistency(
            f"induced polarization {res.m.rows} != closed form {zeta_closed.rows}")
    zeta = res.zeta2
    if polarization_type(zeta) != (1, d):
        raise InternalInconsistency(f"induced polarization type {polarization_type(zeta)}")

    gram = Tav(quotient.pairing, zeta).gram
    if gram != qpp_raw(sd):
        raise InternalInconsistency(f"Gram matrix {gram.rows} != period form")
    jpp = Tav(gram, Mat.identity(2))
    phi = TavMorphism(prod, jpp, msharp=imat(d, k, 0, 1), mflat=qflat)
    if pullback_polarization(phi, jpp.polarization) != dd:
        raise InternalInconsistency("splitting isogeny does not pull back to d*identity")
    basis_b = (tuple(gram[i, 0] for i in range(2)), tuple(gram[i, 1] for i in range(2)))
    return JppModel(sd=sd, qflat=qflat, zeta=zeta, zetapp=jpp.polarization, gram=gram,
                    basis_b=basis_b, product=prod, quotient=quotient, jpp=jpp,
                    quotient_map=qmor, splitting_isogeny=phi)


@given(splitting_data(max_d=64, max_num=12, max_den=6))
def test_build_jpp_matches_the_oracle_field_by_field(sd):
    got, want = build_jpp(sd), oracle_build_jpp(sd)
    for field in fields(JppModel):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def oracle_build_diagram(sd):
    """build_diagram as it was before it read phitilde off the descent.

    It runs the generic adjoint on the two identity polarizations and checks
    both composites against d * identity.
    """
    jm = oracle_build_jpp(sd)
    phi = jm.splitting_isogeny.mflat
    phitilde = tav.adjoint(jm.splitting_isogeny, jm.product.polarization,
                           jm.jpp.polarization).mflat
    d = sd.d
    if phitilde @ phi != imat(d, 0, 0, d) or phi @ phitilde != imat(d, 0, 0, d):
        raise InternalInconsistency("adjoint composite is not multiplication by d")
    kernel = oracle_kernel(phi, d, sd.k)
    return SplitDiagram(sd=sd, phi=phi, phitilde=phitilde,
                        f1=col2(phi[0, 0], phi[1, 0]), f2=col2(phi[0, 1], phi[1, 1]),
                        g1=row2(phitilde[0, 0], phitilde[0, 1]),
                        g2=row2(phitilde[1, 0], phitilde[1, 1]),
                        kernel_normalized=kernel,
                        kernel_raw=tuple((u * sd.lp, v * sd.l) for u, v in kernel),
                        zeta=jm.zeta, gram=jm.gram)


@given(splitting_data(max_d=64, max_num=12, max_den=6))
def test_build_diagram_matches_the_oracle_field_by_field(sd):
    got, want = build_diagram(sd), oracle_build_diagram(sd)
    for field in fields(SplitDiagram):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def test_build_diagram_certifies_each_polarization_once(monkeypatch):
    calls = {"check_polarization": 0, "inv2": 0, "matmul": 0, "TavMorphism": 0,
             "polarization_type": 0, "adjoint": 0}

    def count(owner, attr, key):
        fn = getattr(owner, attr)

        def counted(*args):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(owner, attr, counted)

    count(tav, "check_polarization", "check_polarization")
    count(tav, "inv2", "inv2")
    count(splitting, "inv2", "inv2")
    count(Mat, "__matmul__", "matmul")
    count(TavMorphism, "__post_init__", "TavMorphism")
    count(tav, "polarization_type", "polarization_type")
    count(splitting, "polarization_type", "polarization_type")
    count(tav, "adjoint", "adjoint")
    build_diagram(SplittingData(d=18, k=7, lp=3, l=1))
    # two circles and their product, the descent's z1 and zeta2, and jpp
    assert calls["check_polarization"] == 6
    # the quotient pairing; the descent inverts by adjugates on integers
    assert calls["inv2"] == 1
    # the quotient map and the splitting isogeny; phitilde is the descended zeta
    assert calls["TavMorphism"] == 2
    assert calls["polarization_type"] == 1
    assert calls["adjoint"] == 0
    assert calls["matmul"] <= 16
    assert not hasattr(splitting, "adjoint")


def test_build_diagram_scales_each_pairing_once(monkeypatch):
    seen = []
    scaled = tav.scaled

    def counted(a):
        seen.append(a)
        return scaled(a)
    monkeypatch.setattr(tav, "scaled", counted)
    build_diagram(SplittingData(d=18, k=7, lp=3, l=1))
    # the two circles, their product, the quotient and jpp; morphisms and checks reuse them
    assert len(seen) == len(set(seen)) == 5


@pytest.mark.parametrize("zeta2", [None, imat(2, 0, 0, 1), imat(2, 1, 1, 1), imat(1, 0, 0, 2),
                                   imat(1, 1, 0, 1)])
def test_build_jpp_rejects_a_wrong_descent(monkeypatch, zeta2):
    # build_diagram reads phitilde off the descent, so a wrong zeta would be a wrong adjoint
    wrong = InduceResult(m=qmat(Fraction(1, 2), 0, 0, 1) if zeta2 is None else zeta2, zeta2=zeta2)
    monkeypatch.setattr(splitting, "induce_polarization", lambda f, z1: wrong)
    for build in (build_jpp, build_diagram):
        with pytest.raises(InternalInconsistency, match="closed form"):
            build(SplittingData(d=2, k=1, lp=1, l=3))


def test_build_jpp_rejects_a_wrong_type(monkeypatch):
    monkeypatch.setattr(splitting, "polarization_type", lambda z: (1, 1))
    with pytest.raises(InternalInconsistency, match="type"):
        build_jpp(SplittingData(d=2, k=1, lp=1, l=3))


@pytest.mark.parametrize("form", [qmat(2, 1, 1, 3), qmat(2, -1, -1, 2), qmat(1, 0, 0, 3)])
def test_build_jpp_rejects_a_wrong_period_form(monkeypatch, form):
    monkeypatch.setattr(splitting, "qpp_raw", lambda sd: form)
    with pytest.raises(InternalInconsistency, match="period form"):
        build_jpp(SplittingData(d=2, k=1, lp=1, l=3))


def test_build_jpp_rejects_a_wrong_pullback(monkeypatch):
    # induce_polarization divides twice: a = msharp^-1 @ z1, then zeta2 = a @ mflat^-1.
    # Doubling the second keeps zeta2 a polarization, but it pulls back to 2 * z1, which
    # only the descent's own certificate sees; build_jpp and build_diagram rely on it.
    sd = SplittingData(d=18, k=7, lp=3, l=1)
    qmor = build_jpp(sd).quotient_map
    real, calls = tav._exact_quotient, []

    def doubled_descent(m, q):
        calls.append(q)
        out = real(m, q)
        return out.scale(2) if len(calls) % 2 == 0 else out
    monkeypatch.setattr(tav, "_exact_quotient", doubled_descent)
    with pytest.raises(InternalInconsistency, match="pull back"):
        induce_polarization(qmor, imat(18, 0, 0, 18))
    with pytest.raises(InternalInconsistency, match="pull back"):
        build_jpp(sd)
    with pytest.raises(InternalInconsistency, match="pull back"):
        build_diagram(sd)
    assert len(calls) == 6


def test_build_jpp_certificates_survive_optimized_mode():
    # python -O strips assert statements; no certificate in the chain may be one
    src = Path(splitting.__file__).resolve().parents[1]
    code = (
        "import splitjac.splitting as s\n"
        "from splitjac.errors import InternalInconsistency\n"
        "s.qpp_raw = lambda sd: s.imat(1, 0, 0, 1)\n"
        "try:\n"
        "    s.build_diagram(s.SplittingData(d=18, k=7, lp=3, l=1))\n"
        "except InternalInconsistency:\n"
        "    print('caught')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, timeout=60, check=True)
    assert out.stdout == "caught\n"


def test_build_diagram_golden():
    dg = build_diagram(SplittingData(d=2, k=1, lp=1, l=3))
    assert dg.phi == imat(1, -1, 0, 2)
    assert dg.phitilde == imat(2, 1, 0, 1)
    assert dg.f1.rows == ((1,), (0,))
    assert dg.f2.rows == ((-1,), (2,))
    assert dg.g1.rows == ((2, 1),)
    assert dg.g2.rows == ((0, 1),)
    assert dg.kernel_normalized == ((0, 0), (Fraction(1, 2), Fraction(1, 2)))
    assert dg.kernel_raw == ((0, 0), (Fraction(1, 2), Fraction(3, 2)))


@pytest.mark.parametrize("wrong", [imat(2, 0, 0, 1), imat(2, 1, 1, 1), imat(1, 1, 0, 1),
                                   imat(1, 0, 0, 2)])
def test_build_diagram_rejects_a_wrong_adjoint(monkeypatch, wrong):
    # phitilde is the descended zeta, so a wrong adjoint can only arrive as a wrong descent
    monkeypatch.setattr(splitting, "induce_polarization",
                        lambda f, z1: InduceResult(m=wrong, zeta2=wrong))
    with pytest.raises(InternalInconsistency, match="closed form"):
        build_diagram(SplittingData(d=2, k=1, lp=1, l=3))


@given(splitting_data(max_d=10, max_num=12, max_den=6))
def test_build_diagram_properties(sd):
    dg = build_diagram(sd)
    d = sd.d
    assert dg.phitilde @ dg.phi == imat(d, 0, 0, d)
    assert dg.phi @ dg.phitilde == imat(d, 0, 0, d)
    assert (dg.g1 @ dg.f1)[0, 0] == d
    assert (dg.g2 @ dg.f2)[0, 0] == d
    assert (dg.g1 @ dg.f2)[0, 0] == 0
    assert (dg.g2 @ dg.f1)[0, 0] == 0
    assert len(dg.kernel_normalized) == d
    # the kernel is the graph of an order-d cyclic gluing: both coordinate
    # projections are bijections onto {0, 1/d, ..., (d-1)/d}
    targets = {Fraction(j, d) for j in range(d)}
    assert {u for u, _ in dg.kernel_normalized} == targets
    assert {v for _, v in dg.kernel_normalized} == targets
    assert dg.kernel_normalized == oracle_kernel(dg.phi, d, sd.k)
    assert dg.kernel_raw == tuple((u * sd.lp, v * sd.l) for u, v in dg.kernel_normalized)


def oracle_kernel(phi, d, k):
    """The kernel certificate on Fractions, as build_diagram made it before it ran on integers."""
    kernel = []
    for j in range(d):
        u = Fraction(k * j, d) % 1
        v = Fraction(j, d) % 1
        img = phi @ col2(u, v)
        if img[0, 0] % 1 != 0 or img[1, 0] % 1 != 0:
            raise InternalInconsistency(f"kernel point ({u},{v}) not killed by phi")
        kernel.append((u, v))
    if len({u for u, _ in kernel}) != d or len({v for _, v in kernel}) != d:
        raise InternalInconsistency("kernel is not a graph of order d")
    return tuple(kernel)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InternalInconsistency as exc:
        return str(exc)


@st.composite
def _kernel_cases(draw):
    """Some phi congruent to [[1, -k], [0, d]] mod d, some off by one entry; any k."""
    d = draw(st.integers(min_value=2, max_value=24))
    k = draw(st.integers(min_value=1, max_value=d - 1))
    shifts = [d * draw(st.integers(min_value=-3, max_value=3)) for _ in range(4)]
    entries = [1 + shifts[0], -k + shifts[1], shifts[2], d + shifts[3]]
    if draw(st.booleans()):
        entries[draw(st.integers(min_value=0, max_value=3))] += draw(
            st.integers(min_value=1, max_value=d - 1))
    return imat(*entries), d, k


@given(_kernel_cases())
def test_kernel_certificate_matches_the_fraction_oracle(case):
    phi, d, k = case
    got, want = _outcome(kernel_numerators, phi, d, k), _outcome(oracle_kernel, phi, d, k)
    if isinstance(want, str):
        assert got == want
    else:
        assert tuple((Fraction(u, d), Fraction(v, d)) for u, v in got) == want


@pytest.mark.parametrize("entries", [(1, -6, 0, 18), (1, -7, 1, 18), (1, -7, 0, 17),
                                     (2, -7, 0, 18), (0, -7, 1, 18), (18, 7, 0, 1)])
def test_kernel_certificate_rejects_each_wrong_entry_of_phi(entries):
    # one wrong entry of phi = [[1, -7], [0, 18]] in either row, or the adjoint in its place
    with pytest.raises(InternalInconsistency, match="not killed by phi"):
        kernel_numerators(imat(*entries), 18, 7)


def test_kernel_certificate_rejects_a_kernel_that_is_not_a_graph():
    # phi kills every point (2j/4, j/4), but they hit only two points of the first circle
    with pytest.raises(InternalInconsistency, match="not a graph of order d"):
        kernel_numerators(imat(1, -2, 0, 4), 4, 2)


def test_build_diagram_certifies_the_kernel_of_non_coprime_data(monkeypatch):
    monkeypatch.setattr(splitting, "check_dk", lambda d, k: None)
    with pytest.raises(InternalInconsistency, match="not a graph of order d"):
        build_diagram(SplittingData(d=4, k=2, lp=1, l=1))


def test_kernel_numerators_golden():
    assert kernel_numerators(imat(1, -7, 0, 18), 18, 7)[:4] == ((0, 0), (7, 1), (14, 2), (3, 3))


@given(splitting_data(max_d=10, max_num=12, max_den=6))
def test_diagram_matrices_depend_only_on_d_and_k(sd):
    dg = build_diagram(sd)
    assert dg.phi == imat(1, -sd.k, 0, sd.d)
    assert dg.phitilde == imat(sd.d, sd.k, 0, 1)
