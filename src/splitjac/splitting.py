"""Splitting data and the principally polarized quotient of two circles.

Splitting data (d, k, lp, l) encodes a pair of tropical elliptic curves of
circumferences lp and l glued along their d-torsion via the parameter k
(coprime to d).  The quotient of the product by the graph of the gluing
carries an induced polarization of type (1, d); twisting by it yields a
principally polarized rank-2 variety whose pairing matrix (in the
distinguished lattice basis) is

    gram = [[d*lp, k*lp], [k*lp, (k^2*lp + l)/d]].

The Selling-ready input form `qpp` is the same matrix with the off-diagonal
sign flipped, so its off-diagonal entry is always negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InternalInconsistency, NonPositiveLength, ValidationError
from .matrices import SFLIP, Mat, col2, congruence_act, imat, inv2, rat, row2
from .tav import (
    Tav,
    TavMorphism,
    adjoint,
    circle,
    direct_sum,
    gram_matrix,
    induce_polarization,
    polarization_type,
)


def check_dk(d: int, k: int) -> None:
    """Validate the discrete half of splitting data."""
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (d, k)):
        raise ValidationError("d and k must be integers")
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    if not 1 <= k <= d - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= d-1, got k={k}, d={d}")
    if gcd(k, d) != 1:
        raise ValidationError(f"k and d must be coprime, got k={k}, d={d}")


@dataclass(frozen=True)
class SplittingData:
    """Gluing degree d, torsion parameter k, and the two circle lengths."""

    d: int
    k: int
    lp: Fraction
    l: Fraction

    def __post_init__(self):
        check_dk(self.d, self.k)
        for name in ("lp", "l"):
            val = rat(getattr(self, name))
            if val <= 0:
                raise NonPositiveLength(f"{name} must be a positive rational, got {val}")
            object.__setattr__(self, name, val)


def qpp_raw(sd: SplittingData) -> Mat:
    """Pairing Gram matrix of the principally polarized quotient."""
    d, k, lp, l = sd.d, sd.k, sd.lp, sd.l
    return Mat(((d * lp, k * lp), (k * lp, Fraction(k * k * lp + l, d))))


def qpp(sd: SplittingData) -> Mat:
    """Selling-ready form: `qpp_raw` with the off-diagonal sign flipped."""
    q = congruence_act(SFLIP, qpp_raw(sd))
    if not (q[0, 1] < 0 and q.det() == sd.lp * sd.l):
        raise InternalInconsistency(f"qpp failed its shape checks: {q.rows}")
    return q


@dataclass(frozen=True)
class JppModel:
    """Quotient construction: plain quotient, induced polarization, pp model."""

    sd: SplittingData
    qflat: Mat               # covariant matrix of the quotient map
    zeta: Mat                # induced type-(1,d) polarization on the quotient
    zetapp: Mat              # identity: polarization of the pp model
    gram: Mat                # pp pairing matrix == qpp_raw
    basis_b: tuple           # raw coordinates of the distinguished lattice basis
    product: Tav
    quotient: Tav
    jpp: Tav
    quotient_map: TavMorphism
    splitting_isogeny: TavMorphism  # product -> jpp


def build_jpp(sd: SplittingData) -> JppModel:
    """Run the quotient construction and certify it two ways.

    Its two independent routes to zeta: the descent of d * identity along the
    quotient map (a certified polarization) and the closed form [[d, k], [0, 1]].
    """
    d, k = sd.d, sd.k
    prod = direct_sum(circle(sd.lp), circle(sd.l))
    qflat = imat(1, -k, 0, d)
    quotient = Tav(prod.pairing @ inv2(qflat))
    qmor = TavMorphism(prod, quotient, Mat.identity(2), qflat)

    dd = imat(d, 0, 0, d)
    res = induce_polarization(qmor, dd)
    zeta, zeta_closed = res.zeta2, imat(d, k, 0, 1)
    if zeta is None or zeta != zeta_closed:
        raise InternalInconsistency(
            f"induced polarization {res.m.rows} != closed form {zeta_closed.rows}")
    if polarization_type(zeta) != (1, d):
        raise InternalInconsistency(f"induced polarization type {polarization_type(zeta)}")

    gram = gram_matrix(zeta, quotient.pairing)
    if gram != qpp_raw(sd):
        raise InternalInconsistency(f"Gram matrix {gram.rows} != period form")
    jpp = Tav(gram, Mat.identity(2))
    phi = TavMorphism(prod, jpp, msharp=zeta, mflat=qflat)
    if phi.msharp @ jpp.polarization @ phi.mflat != dd:
        raise InternalInconsistency("splitting isogeny does not pull back to d*identity")
    basis_b = (tuple(gram[i, 0] for i in range(2)), tuple(gram[i, 1] for i in range(2)))
    return JppModel(sd=sd, qflat=qflat, zeta=zeta, zetapp=jpp.polarization, gram=gram,
                    basis_b=basis_b, product=prod, quotient=quotient, jpp=jpp,
                    quotient_map=qmor, splitting_isogeny=phi)


@dataclass(frozen=True)
class SplitDiagram:
    """Normalized torus maps of the splitting isogeny and its adjoint.

    All matrices act on coordinates in the bases of the second lattices, i.e.
    each circle is R/Z and the quotient's points are written in the
    distinguished lattice basis.
    """

    sd: SplittingData
    phi: Mat       # [[1,-k],[0,d]]: splitting isogeny on points
    phitilde: Mat  # [[d,k],[0,1]]: its adjoint on points
    f1: Mat        # phi restricted to the first circle (2x1)
    f2: Mat        # phi restricted to the second circle (2x1)
    g1: Mat        # first-circle component of phitilde (1x2)
    g2: Mat        # second-circle component of phitilde (1x2)
    kernel_normalized: tuple  # kernel of phi on the product torus, coords in [0,1)
    kernel_raw: tuple         # same points scaled by the circle lengths
    zeta: Mat      # induced type-(1,d) polarization on the quotient (from build_jpp)
    gram: Mat      # pp pairing matrix (from build_jpp)


def kernel_numerators(phi: Mat, d: int, k: int) -> tuple:
    """Numerators (u, v) of the kernel points (u/d, v/d) of phi, u = k*v mod d, certified.

    Each point is checked to map into Z^2 under phi's own integer entries, and
    the points are checked to form a graph of order d over each circle.
    """
    (p00, p01), (p10, p11) = phi.rows
    points = tuple((k * v % d, v) for v in range(d))
    for u, v in points:
        if (p00 * u + p01 * v) % d or (p10 * u + p11 * v) % d:
            raise InternalInconsistency(
                f"kernel point ({Fraction(u, d)},{Fraction(v, d)}) not killed by phi")
    if len({u for u, _ in points}) != d or len({v for _, v in points}) != d:
        raise InternalInconsistency("kernel is not a graph of order d")
    return points


def build_diagram(sd: SplittingData) -> SplitDiagram:
    jm = build_jpp(sd)
    phi = jm.splitting_isogeny.mflat
    adj = adjoint(jm.splitting_isogeny, jm.product.polarization, jm.jpp.polarization)
    phitilde = adj.mflat
    d = sd.d
    if phitilde @ phi != imat(d, 0, 0, d) or phi @ phitilde != imat(d, 0, 0, d):
        raise InternalInconsistency("adjoint composite is not multiplication by d")
    f1 = col2(phi[0, 0], phi[1, 0])
    f2 = col2(phi[0, 1], phi[1, 1])
    g1 = row2(phitilde[0, 0], phitilde[0, 1])
    g2 = row2(phitilde[1, 0], phitilde[1, 1])

    kernel_norm = tuple((Fraction(u, d), Fraction(v, d))
                        for u, v in kernel_numerators(phi, d, sd.k))
    kernel_raw = tuple((u * sd.lp, v * sd.l) for u, v in kernel_norm)
    return SplitDiagram(sd=sd, phi=phi, phitilde=phitilde, f1=f1, f2=f2, g1=g1, g2=g2,
                        kernel_normalized=kernel_norm, kernel_raw=kernel_raw,
                        zeta=jm.zeta, gram=jm.gram)
