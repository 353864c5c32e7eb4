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
the three coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd

from .errors import ConeCapExceeded, InternalInconsistency, ValidationError
from .matrices import Mat
from .selling import DEFAULT_CAP, reduce_triple
from .splitting import check_dk


@dataclass(frozen=True)
class LinForm:
    """Linear form a*lp + b*l with exact rational coefficients."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

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
        return self.a * Fraction(lp) + self.b * Fraction(l)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def primitive(self) -> "LinForm":
        """Integer-coefficient multiple with gcd 1 and b > 0 (or b = 0, a > 0)."""
        if self.is_zero():
            raise ValueError("zero form has no primitive representative")
        x, y = _primitive_int_pair(self.a, self.b)
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        return LinForm(x, y)

    def kernel_direction(self):
        """Primitive direction in the closed quadrant where the form vanishes."""
        if self.is_zero():
            return None
        x, y = _primitive_int_pair(self.b, -self.a)
        for cand in ((x, y), (-x, -y)):
            if cand[0] >= 0 and cand[1] >= 0:
                return cand
        return None


def _primitive_int_pair(x, y) -> tuple:
    fx, fy = Fraction(x), Fraction(y)
    m = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    xi, yi = int(fx * m), int(fy * m)
    g = gcd(abs(xi), abs(yi))
    if g > 1:
        xi, yi = xi // g, yi // g
    return (xi, yi)


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


def _seed_runs(d: int, k: int, q: Mat) -> list:
    """Runs of the reduction at a point (1, eps) of the cone at the lp-axis.

    eps starts at 1/(2d) and is halved until the terminal forms are positive
    at the sample and nonnegative at (1, 0), i.e. the sample lies in the open
    cone at the lp-axis, whose word is the longest of the fan.
    """
    for attempt in range(64):
        eps = Fraction(1, (2 * d) << attempt)
        (a, b, c), runs = reduce_triple(q[0, 0], q[0, 1], q[1, 1],
                                        lambda f: f.a + f.b * eps, DEFAULT_CAP)
        if all(t.a + t.b * eps > 0 and t.a >= 0 for t in (a + b, c + b, -b)):
            return runs
    raise InternalInconsistency(f"could not seed the fan of d={d}, k={k} at the lp-axis")


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

    The reduction at a point of the cone at the lp-axis gives the longest
    word w, of N moves.  Cone m (m = N .. 0, from the lp-axis to the l-axis)
    has word w[:m], inequalities fired[:m] plus the terminal forms of the
    triple after m moves, phi_sigma those terminal forms, and upper ray the
    kernel of fired[m - 1], or (0, 1) for m = 0.  Raises ConeCapExceeded
    when there are more than cap cones.
    """
    check_dk(d, k)
    q = qpp_symbolic(d, k)
    word, fired, terminals = _prefix_forms(q, _seed_runs(d, k, q))
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

_PERMS3 = tuple(permutations(range(3)))


def _apply_perm(perm, v):
    return tuple(v[perm[i]] for i in range(3))


def _primitive_vec3(vals) -> tuple:
    m = 1
    for v in vals:
        den = Fraction(v).denominator
        m = m * den // gcd(m, den)
    ints = [int(Fraction(v) * m) for v in vals]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _cross3(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _plane_normal(v1, v2) -> tuple:
    c = _cross3(v1, v2)
    if c == (0, 0, 0):
        raise InternalInconsistency(f"degenerate image cone: {v1}, {v2}")
    n = _primitive_vec3(c)
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
            vecs.append(_primitive_vec3(vals))
        _plane_normal(vecs[0], vecs[1])  # raises if the image degenerates to a line
        out.append((vecs[0], vecs[1]))
    return tuple(out)


def _saturate(cones) -> tuple:
    out = set()
    for v1, v2 in cones:
        for perm in _PERMS3:
            w1, w2 = _apply_perm(perm, v1), _apply_perm(perm, v2)
            out.add((w1, w2) if w1 <= w2 else (w2, w1))
    return tuple(sorted(out))

def _solve_interval(v1, v2, w1, w2):
    """s-range in [0, 1] where (1-s) v1 + s v2 lies in cone(w1, w2), or None."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = w1[i] * w2[j] - w1[j] * w2[i]
        if det != 0:
            break
    else:
        raise InternalInconsistency("collinear generators in image cone")
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


def _by_plane(cones) -> dict:
    """Image cones grouped by the primitive normal of their plane."""
    planes = {}
    for cone in cones:
        planes.setdefault(_plane_normal(*cone), []).append(cone)
    return planes


def _covered(cone, pool) -> bool:
    """Whether cone is contained in the union of the pool's cones (all 2D, exact).

    The pool holds the cones that lie in cone's plane.
    """
    v1, v2 = cone
    intervals = []
    for w1, w2 in pool:
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


def _covers(planes, pool) -> bool:
    """Whether each cone of planes lies in the union of pool's cones in its plane.

    pool must have a group for every plane of planes.
    """
    return all(_covered(cone, pool[n]) for n, cones in planes.items() for cone in cones)


def canonical_image(v1, v2) -> tuple:
    """Lexicographically minimal relabeling of an image cone's generator pair."""
    best = None
    for perm in _PERMS3:
        pair = tuple(sorted((_apply_perm(perm, v1), _apply_perm(perm, v2))))
        if best is None or pair < best:
            best = pair
    return best


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
    planes1, planes2 = _by_plane(_saturate(ic1)), _by_plane(_saturate(ic2))
    equal = (planes1.keys() == planes2.keys()
             and _covers(planes1, planes2) and _covers(planes2, planes1))
    return ComparisonResult(equal=equal,
                            images1=tuple(canonical_image(*c) for c in ic1),
                            images2=tuple(canonical_image(*c) for c in ic2))
