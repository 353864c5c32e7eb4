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

The polarization, compatibility, descent and adjoint checks run on integers.
A pairing p enters them as (n, D) = scaled(p): D is the lcm of its entries'
denominators and n = D * p, computed once per Tav and kept as its
scaled_pairing.  Symmetry and definiteness of z^T @ n are those
of the Gram matrix z^T @ p, as D > 0; compatibility is tested as
msharp^T @ n_src * D_tgt == n_tgt @ mflat * D_src; a matrix m is inverted as
adjugate(m) / det(m), with the division tested for exactness.  The rational
matrices appear only in error messages and in a failed descent's
InduceResult.m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import (
    ImageConditionViolated,
    IncompatibleMorphism,
    InternalInconsistency,
    NonPositiveLength,
    NotIsogeny,
    NotPositiveDefinite,
    NotPrincipal,
    SingularMatrix,
    UnsupportedRank,
    ValidationError,
)
from .matrices import Mat, adjugate, inv2, is_positive_definite, rat, scaled


def gram_matrix(polarization: Mat, pairing: Mat) -> Mat:
    """Gram matrix polarization^T @ pairing of a candidate polarization."""
    return polarization.T @ pairing


def check_polarization(z: Mat, pairing: Mat, n: Mat | None = None) -> None:
    """Raise unless z is a polarization for the given pairing.

    n is scaled(pairing)[0] when the caller already has it (a Tav keeps it).
    """
    if z.shape != pairing.shape:
        raise ValidationError(f"polarization shape {z.shape} != pairing shape {pairing.shape}")
    if not z.is_integral():
        raise ValidationError("polarization must be an integer matrix")
    g = z.to_int().T @ (scaled(pairing)[0] if n is None else n)
    if not g.is_symmetric():
        raise ValidationError(
            f"polarization Gram matrix not symmetric: {gram_matrix(z, pairing).rows}")
    if not is_positive_definite(g):
        raise NotPositiveDefinite(
            f"polarization Gram matrix not positive definite: {gram_matrix(z, pairing).rows}")


def polarization_type(z: Mat) -> tuple:
    """Smith invariant factors of an integer 1x1 or 2x2 matrix.

    For 2x2 they are (g, |det z| / g), g the gcd of the entries ((0, 0) for zero).
    """
    if z.shape not in ((1, 1), (2, 2)):
        raise UnsupportedRank(f"polarization type undefined for shape {z.shape}")
    if not z.is_integral():
        raise ValidationError(f"polarization type requires an integer matrix, got {z.rows}")
    z = z.to_int()
    if z.shape == (1, 1):
        return (abs(z[0, 0]),)
    g = gcd(*z.rows[0], *z.rows[1])
    return (g, abs(z.det()) // g) if g else (0, 0)


def is_principal(z: Mat) -> bool:
    return all(f == 1 for f in polarization_type(z))


@dataclass(frozen=True)
class Tav:
    """Tropical abelian variety: pairing matrix plus optional polarization."""

    pairing: Mat
    polarization: Mat | None = None
    scaled_pairing: tuple = field(init=False, repr=False, compare=False)  # scaled(pairing)

    def __post_init__(self):
        p = self.pairing.map(rat)
        if p.nrows != p.ncols:
            raise ValidationError("pairing matrix must be square")
        if p.nrows not in (1, 2):
            raise UnsupportedRank(f"rank {p.nrows} unsupported (only 1 and 2)")
        if p.det() == 0:
            raise SingularMatrix("pairing matrix is degenerate")
        object.__setattr__(self, "pairing", p)
        object.__setattr__(self, "scaled_pairing", scaled(p))
        if self.polarization is not None:
            check_polarization(self.polarization, p, self.scaled_pairing[0])
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
        n_src, d_src = self.source.scaled_pairing
        n_tgt, d_tgt = self.target.scaled_pairing
        if (self.msharp.T @ n_src).scale(d_tgt) != (n_tgt @ self.mflat).scale(d_src):
            lhs = self.msharp.T @ self.source.pairing
            rhs = self.target.pairing @ self.mflat
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
    check_polarization(z2, f.target.pairing, f.target.scaled_pairing[0])
    if not classify(f).isogeny:
        raise NotIsogeny("pullback requires an isogeny")
    z1 = f.msharp @ z2 @ f.mflat
    try:
        check_polarization(z1, f.source.pairing, f.source.scaled_pairing[0])
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


def _exact_quotient(m: Mat, q: int) -> Mat | None:
    """m / q for an int matrix m when q divides every entry, else None."""
    if any(x % q for r in m.rows for x in r):
        return None
    return m.map(lambda x: x // q)


def induce_polarization(f: TavMorphism, z1: Mat) -> InduceResult:
    """Descend a source polarization z1 along f, if possible.

    Computes a = msharp^{-1} @ z1 (integrality of a is exactly the condition
    that the image of z1 lies in the image of msharp), then m = a @ mflat^{-1}.
    The descent exists iff m is integral; then pullback(f, m) == z1.  Both
    inverses are adjugate / det, and each division is tested on integers.
    """
    check_polarization(z1, f.source.pairing, f.source.scaled_pairing[0])
    if f.source.rank != f.target.rank:
        raise NotIsogeny("ranks differ")
    det_flat, det_sharp = f.mflat.det(), f.msharp.det()
    if det_flat == 0:
        raise NotIsogeny("mflat not invertible")
    if det_sharp == 0:
        raise ImageConditionViolated("msharp not invertible: image cannot contain im(z1)")
    z1 = z1.to_int()
    a = _exact_quotient(adjugate(f.msharp) @ z1, det_sharp)
    if a is None:
        raise ImageConditionViolated(
            f"im(z1) not contained in im(msharp): msharp^-1 @ z1 = {(inv2(f.msharp) @ z1).rows}")
    zeta2 = _exact_quotient(a @ adjugate(f.mflat), det_flat)
    if zeta2 is None:
        return InduceResult(m=a @ inv2(f.mflat), zeta2=None)
    check_polarization(zeta2, f.target.pairing, f.target.scaled_pairing[0])
    if f.msharp @ zeta2 @ f.mflat != z1:
        raise InternalInconsistency("induced polarization does not pull back to z1")
    return InduceResult(m=zeta2, zeta2=zeta2)


def adjoint(f: TavMorphism, z1: Mat, z2: Mat) -> TavMorphism:
    """Adjoint morphism w.r.t. principal polarizations z1 (source), z2 (target).

    The composite adjoint(f) . f is multiplication by deg(f) on the source.
    """
    check_polarization(z1, f.source.pairing, f.source.scaled_pairing[0])
    check_polarization(z2, f.target.pairing, f.target.scaled_pairing[0])
    if not is_principal(z1):
        raise NotPrincipal(f"source polarization type {polarization_type(z1)}")
    if not is_principal(z2):
        raise NotPrincipal(f"target polarization type {polarization_type(z2)}")
    z1, z2 = z1.to_int(), z2.to_int()
    # det(z1) = +-1, as z1 is principal, so the inverse and both adjoint maps are int Mats
    z1_inv = adjugate(z1).scale(z1.det())
    return TavMorphism(f.target, f.source, z2 @ f.mflat @ z1_inv, z1_inv @ f.msharp @ z2)
