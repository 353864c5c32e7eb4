"""Fan of the d-split locus over the quadrant of circle lengths.

For fixed coprime (d, k) the Selling-ready period form has entries that are
linear forms in the two lengths (lp, l).  Running the reduction symbolically,
the branch taken at each step depends only on signs of linear forms, so the
open quadrant decomposes into finitely many 2-dimensional rational cones on
which the reduction word is constant.  This module walks those cones from the
lp-axis to the l-axis, records for each cone the word, the strict inequalities
cut out by the walk, the two extreme rays, and the symbolic edge-length map
phi_sigma (the sigma coordinates of the reduced form as linear forms), and
compares the images of two such fans inside the length space of genus-2
curves up to relabeling of the three coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import permutations
from math import gcd

from .errors import ConeCapExceeded, DegenerateSample, InternalInconsistency, ValidationError
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


def _symbolic_reduce(d: int, k: int, sample: tuple, cap: int):
    """Replay the reduction at a sample point, tracking symbolic entries.

    Returns (word, inequalities, phi_sigma).  A run of n moves fires the
    decision forms -(a + b + j*a) for T2 and -(c + b + j*c) for T1, j < n,
    where (a, b, c) is the form at the start of the run.  Raises
    DegenerateSample when a terminal coordinate vanishes at the sample, i.e.
    the sample is on a wall.
    """
    q = qpp_symbolic(d, k)
    lp, l = sample
    (a, b, c), runs = reduce_triple(q[0, 0], q[0, 1], q[1, 1],
                                    lambda f: f.evaluate(lp, l), cap)
    moves, fired = [], []
    for move, n, (a0, b0, c0) in runs:
        step = a0 if move == "T2" else c0
        moves.extend([move] * n)
        fired.extend(-(step + b0 + j * step) for j in range(n))
    terminal = (a + b, c + b, -b)
    if any(t.evaluate(lp, l) == 0 for t in terminal):
        raise DegenerateSample(f"terminal coordinate vanishes at {sample}")
    return tuple(moves), tuple(fired) + terminal, terminal


def _angle_cmp(r, s) -> int:
    cross = r[0] * s[1] - r[1] * s[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _extreme_rays(ineqs) -> tuple:
    """The two extreme rays of {all forms >= 0} within the closed quadrant."""
    usable = [f for f in ineqs if not f.is_zero()]
    cands = set()
    for f in usable:
        dirn = f.kernel_direction()
        if dirn is not None and all(g.evaluate(*dirn) >= 0 for g in usable):
            cands.add(dirn)
    for axis in ((1, 0), (0, 1)):
        if all(g.evaluate(*axis) >= 0 for g in usable):
            cands.add(axis)
    if len(cands) != 2:
        raise InternalInconsistency(f"expected exactly 2 extreme rays, got {sorted(cands)}")
    lo, hi = sorted(cands, key=cmp_to_key(_angle_cmp))
    return (lo, hi)


def _cone_at(d: int, k: int, sample: tuple, cap: int) -> FanCone:
    moves, ineqs, phi_sigma_forms = _symbolic_reduce(d, k, sample, cap)
    rays = _extreme_rays(ineqs)
    return FanCone(word=moves, inequalities=ineqs, rays=rays, phi_sigma=phi_sigma_forms)


def build_fan(d: int, k: int, cap: int = None) -> FanDelta:
    """Walk the quadrant counterclockwise, one maximal cone at a time."""
    check_dk(d, k)
    cone_cap = 64 * d if cap is None else cap
    first = None
    for attempt in range(64):
        eps = Fraction(1, (2 * d) << attempt)
        try:
            cone = _cone_at(d, k, (Fraction(1), eps), DEFAULT_CAP)
        except DegenerateSample:
            continue
        if cone.rays[0] == (1, 0):
            first = cone
            break
    if first is None:
        raise InternalInconsistency("fan walk could not seed at the lp-axis")
    cones = [first]
    while cones[-1].rays[1] != (0, 1):
        if len(cones) >= cone_cap:
            raise ConeCapExceeded(f"more than {cone_cap} cones for d={d}, k={k}")
        rx, ry = cones[-1].rays[1]
        nxt = None
        for attempt in range(64):
            delta = Fraction(1, 16 << attempt)
            sample = (rx - delta * ry, ry + delta * rx)
            if sample[0] <= 0 or sample[1] <= 0:
                continue
            try:
                cone = _cone_at(d, k, sample, DEFAULT_CAP)
            except DegenerateSample:
                continue
            if cone.rays[0] != (rx, ry):
                continue  # overstepped into a later cone; shrink the rotation
            nxt = cone
            break
        if nxt is None:
            raise InternalInconsistency(f"fan walk stuck crossing ray {(rx, ry)}")
        if nxt.word == cones[-1].word:
            raise InternalInconsistency("fan walk failed to leave the current cone")
        cones.append(nxt)
    words = [c.word for c in cones]
    if len(set(words)) != len(words):
        raise InternalInconsistency("two cones share a reduction word")
    return FanDelta(d=d, k=k, cones=tuple(cones))


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


def _covered(cone, pool) -> bool:
    """Whether cone is contained in the union of the pool's cones (all 2D, exact)."""
    v1, v2 = cone
    n = _plane_normal(v1, v2)
    intervals = []
    for w1, w2 in pool:
        if _plane_normal(w1, w2) != n:
            continue
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
    sat1, sat2 = _saturate(ic1), _saturate(ic2)
    equal = (all(_covered(c, sat2) for c in sat1)
             and all(_covered(c, sat1) for c in sat2))
    return ComparisonResult(equal=equal,
                            images1=tuple(canonical_image(*c) for c in ic1),
                            images2=tuple(canonical_image(*c) for c in ic2))
