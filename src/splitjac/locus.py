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
arcs in each plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import permutations
from math import gcd, lcm

from .errors import ConeCapExceeded, InternalInconsistency, ValidationError
from .matrices import Mat, rat
from .selling import DEFAULT_CAP, reduce_triple
from .splitting import check_dk


@dataclass(frozen=True)
class LinForm:
    """Linear form a*lp + b*l with exact rational coefficients."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
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

    def evaluate(self, lp, l) -> Fraction:
        if isinstance(lp, float) or isinstance(l, float):
            raise ValidationError(f"lp and l must be exact, got {lp!r} and {l!r}")
        return self.a * lp + self.b * l

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def primitive(self) -> "LinForm":
        """Integer-coefficient multiple with gcd 1 and b > 0 (or b = 0, a > 0)."""
        if self.is_zero():
            raise ValueError("zero form has no primitive representative")
        x, y = _primitive((self.a, self.b))
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        return LinForm(x, y)

    def kernel_direction(self):
        """Primitive direction in the closed quadrant where the form vanishes."""
        if self.is_zero():
            return None
        x, y = _primitive((self.b, -self.a))
        for cand in ((x, y), (-x, -y)):
            if cand[0] >= 0 and cand[1] >= 0:
                return cand
        return None


def _primitive(vals) -> tuple:
    """The integer multiple of a nonzero int or Fraction vector whose entries have gcd 1."""
    m = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (m // v.denominator) for v in vals]
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


def _prefix_forms(q: Mat, runs) -> tuple:
    """The word, its decision forms and the terminal forms after every prefix.

    T2 fires on -(a + b) and T1 on -(c + b) of the triple it acts on, so
    decision form i is minus a terminal form of triple i.
    """
    word, fired, terminals = [], [], []
    a, b, c = q[0, 0], q[0, 1], q[1, 1]
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

    Each decision form is positive at (1, 0) and vanishes on a ray of the
    open quadrant, and the rays turn strictly counterclockwise, so fired[i]
    is positive on the cones before its own ray.  Each cone's terminal forms
    are nonnegative at both of its rays and positive at their sum, hence
    positive on the open cone.  On the open cone m the reduction therefore
    fires exactly the first m moves and stops.
    """
    for f in fired:
        r = f.kernel_direction()
        if not (f.evaluate(1, 0) > 0 and r is not None and r[0] > 0 and r[1] > 0):
            raise InternalInconsistency(f"decision form {f} does not cut the open quadrant")
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
    q = qpp_symbolic(d, k)
    _, runs = reduce_triple(q[0, 0], q[0, 1], q[1, 1], _negative_at_lp_axis, DEFAULT_CAP)
    word, fired, terminals = _prefix_forms(q, runs)
    n = len(word)
    if cap is not None and n + 1 > cap:
        raise ConeCapExceeded(f"more than {cap} cones for d={d}, k={k}")
    rays = [(1, 0)] + [f.kernel_direction() for f in reversed(fired)] + [(0, 1)]
    _certify_fan(fired, terminals, rays)
    cones = tuple(FanCone(word=word[:m], inequalities=fired[:m] + terminals[m],
                          rays=(rays[n - m], rays[n - m + 1]), phi_sigma=terminals[m])
                  for m in range(n, -1, -1))
    return FanDelta(d=d, k=k, cones=cones)


def boundary_rays(d: int, k: int, fan: FanDelta = None) -> tuple:
    """(word, form) pairs for the rays where the curve degenerates to a dumbbell.

    These are the vanishing loci of the terminal forms l1, l2 that meet the
    open quadrant, i.e. whose primitive coefficients have opposite signs.
    """
    if fan is None:
        fan = build_fan(d, k)
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


def _plane_normal(v1, v2) -> tuple:
    c = _cross3(v1, v2)
    if c == (0, 0, 0):
        raise InternalInconsistency(f"degenerate image cone: {v1}, {v2}")
    n = _primitive(c)
    for x in n:
        if x != 0:
            return n if x > 0 else tuple(-y for y in n)
    raise InternalInconsistency("unreachable: zero normal")


def image_cones(fan: FanDelta) -> tuple:
    """Per maximal cone, the image cone in length space: a generator pair."""
    out = []
    for cone in fan.cones:
        vecs = []
        for ray in cone.rays:
            vals = tuple(f.evaluate(ray[0], ray[1]) for f in cone.phi_sigma)
            if all(v == 0 for v in vals):
                raise InternalInconsistency(f"image of ray {ray} is zero")
            if any(v < 0 for v in vals):
                raise InternalInconsistency(f"image of ray {ray} leaves the positive octant")
            vecs.append(_primitive(vals))
        _plane_normal(vecs[0], vecs[1])  # raises if the image degenerates to a line
        out.append((vecs[0], vecs[1]))
    return tuple(out)


def _relabelings(v1, v2):
    """The six relabelings of a generator pair, each pair sorted."""
    for perm in permutations(range(3)):
        w1, w2 = tuple(v1[i] for i in perm), tuple(v2[i] for i in perm)
        yield (w1, w2) if w1 <= w2 else (w2, w1)


def _saturate(cones) -> set:
    return {pair for cone in cones for pair in _relabelings(*cone)}


def canonical_image(v1, v2) -> tuple:
    """Lexicographically minimal relabeling of an image cone's generator pair."""
    return min(_relabelings(v1, v2))


def _arcs(cones) -> dict:
    """Canonical form of a union of image cones: {plane normal: its maximal arcs}.

    The rays of the positive octant in one plane are totally ordered by the
    turn order about its normal, so the union in each plane is a unique
    sorted tuple of disjoint, non-touching arcs (first ray, last ray).
    """
    sectors = {}
    for v1, v2 in cones:
        n = _plane_normal(v1, v2)
        sectors.setdefault(n, []).append((v1, v2) if _turn(v1, v2, n) > 0 else (v2, v1))
    out = {}
    for n, group in sectors.items():
        group.sort(key=cmp_to_key(lambda s, t: _turn(t[0], s[0], n)))
        arcs = [list(group[0])]
        for lo, hi in group[1:]:
            if _turn(arcs[-1][1], lo, n) > 0:
                arcs.append([lo, hi])
            elif _turn(arcs[-1][1], hi, n) > 0:
                arcs[-1][1] = hi
        out[n] = tuple(map(tuple, arcs))
    return out


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
    return ComparisonResult(equal=_arcs(_saturate(ic1)) == _arcs(_saturate(ic2)),
                            images1=tuple(canonical_image(*c) for c in ic1),
                            images2=tuple(canonical_image(*c) for c in ic2))
