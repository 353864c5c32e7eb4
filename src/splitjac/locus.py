"""Fan of the d-split locus over the quadrant of circle lengths.

For fixed coprime (d, k) the Selling-ready period form has entries that are
linear forms in the two lengths (lp, l).  Running the reduction symbolically,
the branch taken at each step depends only on signs of linear forms, so the
open quadrant decomposes into finitely many 2-dimensional rational cones on
which the reduction word is constant.  Their words are the prefixes of the
word at the lp-axis, so one symbolic reduction there gives every cone, from
the lp-axis to the l-axis: its word, its strict inequalities, its two extreme
rays, and the symbolic edge-length map phi_sigma (the sigma coordinates of
the reduced form as linear forms).  The module also compares the images of
two such fans inside the length space of genus-2 curves up to relabeling of
the three coordinates, through a canonical form of each image: its maximal
arcs in each plane (image_key).  The key takes one plane normal per image
cone; a relabeling p sends it to sign(p) times its relabeled entries.

The coefficients of the period form have denominator d, so the fan is
computed on d times the form, whose linear forms have int coefficients;
scaling by d > 0 changes no sign and no kernel direction.  Only the public
inequalities and phi_sigma are divided by d, once per form.  image_cones
scales each cone's phi_sigma back to int coefficients before it evaluates
them at the rays.  A LinForm's coefficients are int or Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .errors import ConeCapExceeded, InternalInconsistency, ValidationError
from .matrices import Mat, cleared, rat
from .selling import DEFAULT_CAP, reduce_triple
from .splitting import check_dk


@dataclass(frozen=True)
class LinForm:
    """Linear form a*lp + b*l with exact rational coefficients.

    An int or Fraction coefficient is kept as given, so forms with int
    coefficients stay on ints under +, -, negation and int multiples; any
    other value goes through rat (a float raises ValidationError).  Equal
    int and Fraction forms are equal and hash equal.
    """

    a: int | Fraction
    b: int | Fraction

    def __post_init__(self):
        if type(self.a) is not int and type(self.a) is not Fraction:
            object.__setattr__(self, "a", rat(self.a))
        if type(self.b) is not int and type(self.b) is not Fraction:
            object.__setattr__(self, "b", rat(self.b))

    def __add__(self, other):
        if isinstance(other, LinForm):
            return LinForm(self.a + other.a, self.b + other.b)
        if other == 0:
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LinForm(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, LinForm):
            return LinForm(self.a - other.a, self.b - other.b)
        return NotImplemented

    def __mul__(self, c):
        if isinstance(c, LinForm):
            return NotImplemented
        return LinForm(self.a * c, self.b * c)

    __rmul__ = __mul__

    def evaluate(self, lp, l):
        if isinstance(lp, float) or isinstance(l, float):
            raise ValidationError(f"lp and l must be exact, got {lp!r} and {l!r}")
        return self.a * lp + self.b * l

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def primitive(self) -> "LinForm":
        """Integer-coefficient multiple with gcd 1 and b > 0 (or b = 0, a > 0)."""
        if self.is_zero():
            raise ValidationError("zero form has no primitive representative")
        x, y = _primitive(cleared((self.a, self.b))[0])
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        return LinForm(x, y)

    def kernel_direction(self):
        """Primitive direction in the closed quadrant where the form vanishes."""
        if self.is_zero():
            return None
        (a, b), _ = cleared((self.a, self.b))
        x, y = _primitive((b, -a))
        for cand in ((x, y), (-x, -y)):
            if cand[0] >= 0 and cand[1] >= 0:
                return cand
        return None


def _primitive(ints) -> tuple:
    """A nonzero int vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def qpp_symbolic(d: int, k: int) -> Mat:
    """Selling-ready period form with entries linear in (lp, l)."""
    check_dk(d, k)
    return Mat(((LinForm(d, 0), LinForm(-k, 0)),
                (LinForm(-k, 0), LinForm(Fraction(k * k, d), Fraction(1, d)))))


@dataclass(frozen=True)
class FanCone:
    """Maximal cone: constant reduction word, open where all inequalities are > 0."""

    word: tuple          # moves, application order
    inequalities: tuple  # LinForms, each strictly positive on the open cone
    rays: tuple          # ((x, y), (x, y)) primitive integer directions, lower first
    phi_sigma: tuple     # symbolic sigma coordinates (l1, l2, l3) of the reduced form


@dataclass(frozen=True)
class FanDelta:
    """The full fan for fixed (d, k): cones ordered from the lp-axis to the l-axis."""

    d: int
    k: int
    cones: tuple


def _negative_at_lp_axis(f: LinForm) -> bool:
    """Whether f < 0 at (1, eps) for every small enough eps > 0."""
    return f.a < 0 or (f.a == 0 and f.b < 0)


def _prefix_forms(triple, runs) -> tuple:
    """The word, its decision forms and the terminal forms after every prefix.

    T2 fires on -(a + b) and T1 on -(c + b) of the triple it acts on, so
    decision form i is minus a terminal form of triple i.
    """
    word, fired, terminals = [], [], []
    a, b, c = triple
    for move, n, _ in runs:
        for _ in range(n):
            terminals.append((a + b, c + b, -b))
            fired.append(-terminals[-1][0 if move == "T2" else 1])
            word.append(move)
            a, b, c = (a, b + a, c + 2 * b + a) if move == "T2" else (a + 2 * b + c, b + c, c)
    terminals.append((a + b, c + b, -b))
    return tuple(word), tuple(fired), terminals


def _certify_fan(fired, terminals, rays) -> None:
    """Certify that cone m is {fired[:m] > 0, terminals[m] > 0}, m = N .. 0.

    Each decision form fired[i] is positive at (1, 0) and vanishes on its
    own ray rays[N - i], which lies in the open quadrant, and the rays turn
    strictly counterclockwise, so fired[i] is positive on the cones before
    its ray.  Each cone's terminal forms are nonnegative at both of its rays
    and positive at their sum, hence positive on the open cone.  On the open
    cone m the reduction therefore fires exactly the first m moves and stops.
    """
    for f, r in zip(fired, reversed(rays[1:-1])):
        if not (f.evaluate(1, 0) > 0 and r is not None and r[0] > 0 and r[1] > 0
                and f.evaluate(*r) == 0):
            raise InternalInconsistency(f"decision form {f} does not vanish on its ray {r}")
    for terminal, lo, hi in zip(reversed(terminals), rays, rays[1:]):
        if lo[0] * hi[1] - lo[1] * hi[0] <= 0:
            raise InternalInconsistency(f"rays {lo}, {hi} do not turn counterclockwise")
        mid = (lo[0] + hi[0], lo[1] + hi[1])
        for t in terminal:
            if t.evaluate(*lo) < 0 or t.evaluate(*hi) < 0 or t.evaluate(*mid) <= 0:
                raise InternalInconsistency(f"terminal form {t} is not positive on cone {lo}, {hi}")


def build_fan(d: int, k: int, cap: int = None) -> FanDelta:
    """The fan from one reduction at the lp-axis: its cones are the word's prefixes.

    The reduction with its signs read on the cone at the lp-axis (the signs
    at (1, eps) for every small enough eps) gives the longest word w, of N
    moves.  Cone m (m = N .. 0, from the lp-axis to the l-axis) has word
    w[:m], inequalities fired[:m] plus the terminal forms of the triple
    after m moves, phi_sigma those terminal forms, and upper ray the kernel
    of fired[m - 1], or (0, 1) for m = 0.  Raises ConeCapExceeded when there
    are more than cap cones.
    """
    check_dk(d, k)
    # (q11, q12, q22) of d * qpp_symbolic(d, k): the same signs and kernels, on ints
    triple = (LinForm(d * d, 0), LinForm(-k * d, 0), LinForm(k * k, 1))
    _, runs = reduce_triple(*triple, _negative_at_lp_axis, DEFAULT_CAP)
    word, fired, terminals = _prefix_forms(triple, runs)
    n = len(word)
    if cap is not None and n + 1 > cap:
        raise ConeCapExceeded(f"more than {cap} cones for d={d}, k={k}")
    rays = [(1, 0)] + [f.kernel_direction() for f in reversed(fired)] + [(0, 1)]
    _certify_fan(fired, terminals, rays)

    def unscaled(f: LinForm) -> LinForm:
        return LinForm(Fraction(f.a, d), Fraction(f.b, d))

    fired = tuple(map(unscaled, fired))
    terminals = [tuple(map(unscaled, t)) for t in terminals]
    cones = tuple(FanCone(word=word[:m], inequalities=fired[:m] + terminals[m],
                          rays=(rays[n - m], rays[n - m + 1]), phi_sigma=terminals[m])
                  for m in range(n, -1, -1))
    return FanDelta(d=d, k=k, cones=cones)


def boundary_rays(fan: FanDelta) -> tuple:
    """(word, form) pairs for the rays where the curve degenerates to a dumbbell.

    These are the vanishing loci of the terminal forms l1, l2 that meet the
    open quadrant, i.e. whose primitive coefficients have opposite signs.
    """
    out = []
    for cone in fan.cones:
        l1, l2, _ = cone.phi_sigma
        for f in (l1, l2):
            p = f.primitive()
            if p.a < 0:  # normalized b > 0, so this means opposite signs
                out.append((cone.word, p))
    return tuple(out)


# --- image comparison up to relabeling of the three length coordinates ---

def _cross3(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _turn(u, v, n):
    """(u x v) . n: positive when v comes after u in the turn order about n."""
    c = _cross3(u, v)
    return c[0] * n[0] + c[1] * n[1] + c[2] * n[2]


def image_cones(fan: FanDelta) -> tuple:
    """Per maximal cone, the image cone in length space: a generator pair.

    Each cone's phi_sigma is scaled once to int coefficients (by the lcm of
    their six denominators) and evaluated at the rays on ints; the primitive
    image vectors do not depend on that positive scale.
    """
    out = []
    for cone in fan.cones:
        c, _ = cleared(x for f in cone.phi_sigma for x in (f.a, f.b))
        forms = tuple(zip(c[0::2], c[1::2]))
        vecs = []
        for x, y in cone.rays:
            vals = tuple(a * x + b * y for a, b in forms)
            if all(v == 0 for v in vals):
                raise InternalInconsistency(f"image of ray {(x, y)} is zero")
            if any(v < 0 for v in vals):
                raise InternalInconsistency(f"image of ray {(x, y)} leaves the positive octant")
            vecs.append(_primitive(vals))
        if _cross3(vecs[0], vecs[1]) == (0, 0, 0):
            raise InternalInconsistency(f"degenerate image cone: {vecs[0]}, {vecs[1]}")
        out.append((vecs[0], vecs[1]))
    return tuple(out)


# The six relabelings p of the coordinates with their signs: relabeling both
# factors by p maps u x v to sign(p) * p(u x v).
_RELABELINGS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1))


def _sectors(v1, v2):
    """(plane normal, first ray, last ray) of every relabeling of an image cone.

    One primitive normal is relabeled; where that leaves its first nonzero
    entry negative it is negated and the rays swap, so first x last stays a
    positive multiple of the normal.
    """
    n = _primitive(_cross3(v1, v2))
    for (i, j, k), sign in _RELABELINGS:
        m = (sign * n[i], sign * n[j], sign * n[k])
        w1, w2 = (v1[i], v1[j], v1[k]), (v2[i], v2[j], v2[k])
        if m > (0, 0, 0):
            yield m, w1, w2
        else:
            yield (-m[0], -m[1], -m[2]), w2, w1


def canonical_image(v1, v2) -> tuple:
    """Lexicographically minimal relabeling of an image cone's generator pair."""
    return min(tuple(sorted(((v1[i], v1[j], v1[k]), (v2[i], v2[j], v2[k]))))
               for (i, j, k), _ in _RELABELINGS)


def _arcs(sectors) -> dict:
    """Canonical form of a union of sectors: {plane normal: its maximal arcs}.

    A sector is (normal, first ray, last ray), as _sectors yields it.  The
    rays of the positive octant in one plane are totally ordered by the turn
    order about its normal, so the union in each plane is a unique sorted
    tuple of disjoint, non-touching arcs (first ray, last ray).
    """
    planes = {}
    for n, lo, hi in sectors:
        planes.setdefault(n, []).append((lo, hi))
    out = {}
    for n, group in planes.items():
        group.sort(key=cmp_to_key(lambda s, t: _turn(t[0], s[0], n)))
        arcs = [list(group[0])]
        for lo, hi in group[1:]:
            if _turn(arcs[-1][1], lo, n) > 0:
                arcs.append([lo, hi])
            elif _turn(arcs[-1][1], hi, n) > 0:
                arcs[-1][1] = hi
        out[n] = tuple(map(tuple, arcs))
    return out


def _key(cones) -> tuple:
    return tuple(sorted(_arcs(s for cone in cones for s in _sectors(*cone)).items()))


def image_key(fan: FanDelta) -> tuple:
    """Hashable canonical form of the fan's image up to coordinate relabeling.

    Two fans of one degree have equal images exactly when their keys are equal.
    """
    return _key(image_cones(fan))


@dataclass(frozen=True)
class ComparisonResult:
    equal: bool
    images1: tuple  # canonicalized image cones of the first fan, per cone
    images2: tuple


def compare_images(fan1: FanDelta, fan2: FanDelta) -> ComparisonResult:
    """Exact equality of the two image unions up to coordinate relabeling."""
    if fan1.d != fan2.d:
        raise ValidationError(f"fans have different d: {fan1.d} != {fan2.d}")
    ic1, ic2 = image_cones(fan1), image_cones(fan2)
    return ComparisonResult(equal=_key(ic1) == _key(ic2),
                            images1=tuple(canonical_image(*c) for c in ic1),
                            images2=tuple(canonical_image(*c) for c in ic2))
