"""Tropical abelian varieties of rank 1 and 2, and their morphisms.

A tropical abelian variety is a pair of lattices of equal rank with a
nondegenerate pairing between them; we fix bases once and for all and encode
the pairing by its matrix pairing[i][j] = [x_i, y_j].  A polarization is an
integer matrix (mapping the second lattice to the first) whose Gram matrix
polarization^T @ pairing is symmetric positive definite; it is principal when
its Smith invariant factors are (1, ..., 1).

A morphism f between two such objects is a pair of integer matrices:
msharp (the contravariant lattice map, target basis -> source expansion) and
mflat (the covariant one), tied together by the compatibility condition
msharp^T @ pairing_src == pairing_tgt @ mflat.  The induced map on points in
raw coordinates (duals of the first lattices) is msharp^T; in the bases of the
second lattices it is mflat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    ImageConditionViolated,
    IncompatibleMorphism,
    InternalInconsistency,
    NonIntegralAdjoint,
    NonPositiveLength,
    NotIsogeny,
    NotPositiveDefinite,
    NotPrincipal,
    SingularMatrix,
    UnsupportedRank,
    ValidationError,
)
from .matrices import Mat, congruence_act, inv2, is_positive_definite, rat, snf2


def gram_matrix(polarization: Mat, pairing: Mat) -> Mat:
    """Gram matrix polarization^T @ pairing of a candidate polarization."""
    return polarization.T @ pairing


def check_polarization(z: Mat, pairing: Mat) -> None:
    """Raise unless z is a polarization for the given pairing."""
    if z.shape != pairing.shape:
        raise ValidationError(f"polarization shape {z.shape} != pairing shape {pairing.shape}")
    if not z.is_integral():
        raise ValidationError("polarization must be an integer matrix")
    g = gram_matrix(z, pairing)
    if not g.is_symmetric():
        raise ValidationError(f"polarization Gram matrix not symmetric: {g.rows}")
    if not is_positive_definite(g):
        raise NotPositiveDefinite(f"polarization Gram matrix not positive definite: {g.rows}")


def polarization_type(z: Mat) -> tuple:
    """Smith invariant factors of an integer polarization matrix."""
    if z.shape == (1, 1):
        return (abs(int(Fraction(z[0, 0]))),)
    return snf2(z).invariant_factors


def is_principal(z: Mat) -> bool:
    return all(f == 1 for f in polarization_type(z))


@dataclass(frozen=True)
class Tav:
    """Tropical abelian variety: pairing matrix plus optional polarization."""

    pairing: Mat
    polarization: Mat | None = None

    def __post_init__(self):
        p = self.pairing.map(rat)
        if p.nrows != p.ncols:
            raise ValidationError("pairing matrix must be square")
        if p.nrows not in (1, 2):
            raise UnsupportedRank(f"rank {p.nrows} unsupported (only 1 and 2)")
        if p.det() == 0:
            raise SingularMatrix("pairing matrix is degenerate")
        object.__setattr__(self, "pairing", p)
        if self.polarization is not None:
            check_polarization(self.polarization, p)
            object.__setattr__(self, "polarization", self.polarization.to_int())

    @property
    def rank(self) -> int:
        return self.pairing.nrows

    @property
    def gram(self) -> Mat:
        if self.polarization is None:
            raise ValidationError("no polarization set")
        return gram_matrix(self.polarization, self.pairing)

    def is_principally_polarized(self) -> bool:
        return self.polarization is not None and is_principal(self.polarization)

    def with_polarization(self, z: Mat) -> "Tav":
        return Tav(self.pairing, z)

    def dual(self) -> "Tav":
        """Dual variety: the two lattices swap roles, pairing transposes."""
        return Tav(self.pairing.T, None)


def circle(length) -> Tav:
    """Tropical elliptic curve: a circle of the given circumference (rank 1)."""
    val = rat(length)
    if val <= 0:
        raise NonPositiveLength(f"length must be positive, got {val}")
    return Tav(Mat(((val,),)), Mat(((1,),)))


def direct_sum(a: Tav, b: Tav) -> Tav:
    """Product with block-diagonal pairing and polarization (ranks must sum to <= 2)."""
    if a.rank + b.rank != 2:
        raise UnsupportedRank("direct sum only supported for two rank-1 factors")
    pairing = Mat(((a.pairing[0, 0], 0), (0, b.pairing[0, 0])))
    if a.polarization is None or b.polarization is None:
        raise ValidationError("both factors need polarizations")
    pol = Mat(((a.polarization[0, 0], 0), (0, b.polarization[0, 0])))
    return Tav(pairing, pol)


def _full_column_rank(m: Mat) -> bool:
    if m.ncols > m.nrows:
        return False
    if m.ncols == m.nrows:
        return m.det() != 0
    # shape (2,1)
    return m[0, 0] != 0 or m[1, 0] != 0


def _image_saturated(m: Mat) -> bool:
    """Whether the column span of an integer matrix is a saturated sublattice."""
    if m.shape == (1, 1):
        return abs(m[0, 0]) == 1
    if m.shape == (2, 2):
        return abs(m.det()) == 1
    if m.shape == (2, 1):
        return gcd(abs(int(m[0, 0])), abs(int(m[1, 0]))) == 1
    return False


@dataclass(frozen=True)
class MorphismClass:
    surjective: bool
    finite: bool
    injective: bool
    isogeny: bool
    degree: int | None  # |det mflat| when isogeny, else None


@dataclass(frozen=True)
class TavMorphism:
    """Morphism of tropical abelian varieties (pair of compatible lattice maps)."""

    source: Tav
    target: Tav
    msharp: Mat  # shape (source.rank, target.rank)
    mflat: Mat   # shape (target.rank, source.rank)

    def __post_init__(self):
        r1, r2 = self.source.rank, self.target.rank
        if self.msharp.shape != (r1, r2):
            raise ValidationError(f"msharp shape {self.msharp.shape}, expected {(r1, r2)}")
        if self.mflat.shape != (r2, r1):
            raise ValidationError(f"mflat shape {self.mflat.shape}, expected {(r2, r1)}")
        if not (self.msharp.is_integral() and self.mflat.is_integral()):
            raise ValidationError("morphism matrices must be integral")
        object.__setattr__(self, "msharp", self.msharp.to_int())
        object.__setattr__(self, "mflat", self.mflat.to_int())
        lhs = self.msharp.T @ self.source.pairing
        rhs = self.target.pairing @ self.mflat
        if lhs != rhs:
            raise IncompatibleMorphism(
                f"msharp^T @ pairing_src = {lhs.rows} != pairing_tgt @ mflat = {rhs.rows}")

    @property
    def torus_map(self) -> Mat:
        """Universal-cover matrix in raw coordinates (duals of the first lattices)."""
        return self.msharp.T


def identity_morphism(t: Tav) -> TavMorphism:
    eye = Mat.identity(t.rank)
    return TavMorphism(t, t, eye, eye)


def multiplication(t: Tav, n: int) -> TavMorphism:
    """Multiplication-by-n endomorphism."""
    scaled = Mat.identity(t.rank).scale(int(n))
    return TavMorphism(t, t, scaled, scaled)


def compose(g: TavMorphism, f: TavMorphism) -> TavMorphism:
    """Composite g after f."""
    if f.target != g.source:
        raise ValidationError("composition mismatch: f.target != g.source")
    return TavMorphism(f.source, g.target, f.msharp @ g.msharp, g.mflat @ f.mflat)


def dual_morphism(f: TavMorphism) -> TavMorphism:
    """Dual morphism between the dual varieties; swaps the two matrices."""
    return TavMorphism(f.target.dual(), f.source.dual(), f.mflat, f.msharp)


def classify(f: TavMorphism) -> MorphismClass:
    """Surjectivity/finiteness/injectivity/isogeny flags of a morphism."""
    surjective = _full_column_rank(f.msharp)
    finite = _full_column_rank(f.mflat)
    injective = finite and _image_saturated(f.mflat)
    isogeny = surjective and finite
    degree = None
    if isogeny:
        degree = abs(int(f.mflat.det()))
    return MorphismClass(surjective=surjective, finite=finite,
                         injective=injective, isogeny=isogeny, degree=degree)


def pullback_polarization(f: TavMorphism, z2: Mat) -> Mat:
    """Pullback msharp @ z2 @ mflat of a target polarization along an isogeny."""
    check_polarization(z2, f.target.pairing)
    if not classify(f).isogeny:
        raise NotIsogeny("pullback requires an isogeny")
    z1 = f.msharp @ z2 @ f.mflat
    try:
        check_polarization(z1, f.source.pairing)
    except (ValidationError, NotPositiveDefinite) as exc:
        raise InternalInconsistency(f"pullback failed to be a polarization: {exc}") from exc
    return z1


@dataclass(frozen=True)
class InduceResult:
    """Result of the polarization-descent computation."""

    m: Mat                 # candidate matrix, rational in general
    zeta2: Mat | None      # integral certified polarization on the target, if any

    @property
    def inducible(self) -> bool:
        return self.zeta2 is not None


def induce_polarization(f: TavMorphism, z1: Mat) -> InduceResult:
    """Descend a source polarization z1 along f, if possible.

    Computes a = msharp^{-1} @ z1 (integrality of a is exactly the condition
    that the image of z1 lies in the image of msharp), then m = a @ mflat^{-1}.
    The descent exists iff m is integral; then pullback(f, m) == z1.
    """
    check_polarization(z1, f.source.pairing)
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
    check_polarization(zeta2, f.target.pairing)
    if f.msharp @ zeta2 @ f.mflat != z1:
        raise InternalInconsistency("induced polarization does not pull back to z1")
    return InduceResult(m=m, zeta2=zeta2)


def adjoint(f: TavMorphism, z1: Mat, z2: Mat) -> TavMorphism:
    """Adjoint morphism w.r.t. principal polarizations z1 (source), z2 (target).

    The composite adjoint(f) . f is multiplication by deg(f) on the source.
    """
    check_polarization(z1, f.source.pairing)
    check_polarization(z2, f.target.pairing)
    if not is_principal(z1):
        raise NotPrincipal(f"source polarization type {polarization_type(z1)}")
    if not is_principal(z2):
        raise NotPrincipal(f"target polarization type {polarization_type(z2)}")
    z1_inv = inv2(z1)
    msharp_adj = z2 @ f.mflat @ z1_inv
    mflat_adj = z1_inv @ f.msharp @ z2
    if not (msharp_adj.is_integral() and mflat_adj.is_integral()):
        raise NonIntegralAdjoint(
            f"adjoint matrices not integral: {msharp_adj.rows}, {mflat_adj.rows}")
    return TavMorphism(f.target, f.source, msharp_adj.to_int(), mflat_adj.to_int())
