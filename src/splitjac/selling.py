"""Selling reduction of positive definite binary forms, and curve classification.

A symmetric positive definite 2x2 rational form Q is *reduced* (lies in the
cone sigma) when all three Selling parameters

    (p12, p13, p23) = (q12, -q11-q12, -q22-q12)

are nonpositive.  In sigma we use the coordinates (l1, l2, l3) =
(q11+q12, q22+q12, -q12) = -(p13, p23, p12), which are the edge lengths of the
tropical genus-2 curve the form is a period matrix of: a theta graph when all
three are positive, a two-loop dumbbell when one vanishes.  The fundamental
domain inside sigma is l3 <= l1 <= l2, reached by the 6-element stabilizer of
sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

from .errors import (
    InternalInconsistency,
    IterationCapExceeded,
    NonPositiveLength,
    NotInSigma,
    NotPositiveDefinite,
    PositiveQ12,
    ValidationError,
)
from .matrices import SFLIP, Mat, congruence_act, imat, is_positive_definite, rat, scaled

T1 = imat(1, 0, 1, 1)
T2 = imat(1, 1, 0, 1)

DEFAULT_CAP = 10000


def check_form(q: Mat) -> None:
    """Raise unless q is a symmetric positive definite 2x2 rational form."""
    if q.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 form, got shape {q.shape}")
    if not q.is_symmetric():
        raise ValidationError(f"form is not symmetric: {q.rows}")
    if not is_positive_definite(q):
        raise NotPositiveDefinite(f"form is not positive definite: {q.rows}")


@dataclass(frozen=True)
class SellingParams:
    p12: Fraction
    p13: Fraction
    p23: Fraction

    def all_nonpositive(self) -> bool:
        return self.p12 <= 0 and self.p13 <= 0 and self.p23 <= 0


def selling_params(q: Mat) -> SellingParams:
    return SellingParams(p12=q[0, 1], p13=-q[0, 0] - q[0, 1], p23=-q[1, 1] - q[0, 1])


def _coords(q: Mat) -> tuple:
    """(l1, l2, l3) = (q11 + q12, q22 + q12, -q12); sigma is where all are >= 0."""
    return (q[0, 0] + q[0, 1], q[1, 1] + q[0, 1], -q[0, 1])


def in_sigma(q: Mat) -> bool:
    check_form(q)
    return selling_params(q).all_nonpositive()


def sigma_coords(q: Mat) -> tuple:
    """Coordinates (l1, l2, l3) on sigma; raises NotInSigma outside."""
    check_form(q)
    p = selling_params(q)
    if not p.all_nonpositive():
        raise NotInSigma(f"Selling parameters not all nonpositive: {p}")
    return _coords(q)


def in_fundamental_domain(q: Mat) -> bool:
    check_form(q)
    l1, l2, l3 = _coords(q)
    return 0 <= l3 <= l1 <= l2


@dataclass(frozen=True)
class ReductionWord:
    """Change-of-basis word: optional sign flip, then runs of moves, then a stabilizer element.

    runs lists (move, n) pairs, meaning move^n, in application order; moves
    expands them.  matrix() is the accumulated X with X^T Q X equal to the
    final form, using T1^n = [[1,0],[n,1]] and T2^n = [[1,n],[0,1]];
    moves_matrix is X without the stabilizer element, built once per word.
    counts() is the legacy view: the run lengths in reverse application order.
    """

    runs: tuple = ()
    preflip: bool = False
    stab: Mat = field(default_factory=lambda: Mat.identity(2))

    @property
    def moves(self) -> tuple:
        return tuple(move for move, n in self.runs for _ in range(n))

    @cached_property
    def moves_matrix(self) -> Mat:
        x = SFLIP if self.preflip else Mat.identity(2)
        for move, n in self.runs:
            x = x @ (imat(1, 0, n, 1) if move == "T1" else imat(1, n, 0, 1))
        return x

    def matrix(self) -> Mat:
        return self.moves_matrix @ self.stab

    def counts(self) -> tuple:
        return tuple(n for _, n in reversed(self.runs))


def reduce_triple(a, b, c, negative=lambda x: x < 0, cap: int = DEFAULT_CAP) -> tuple:
    """Selling-reduce the form triple (a, b, c) = (q11, q12, q22) by unit moves.

    T2: (a, b, c) -> (a, b + a, c + 2b + a) while negative(a + b) (p13 > 0),
    else T1: (a, b, c) -> (a + 2b + c, b + c, c) while negative(c + b)
    (p23 > 0); both cannot hold, as p13 + p23 < 0 for definite forms.
    negative is the sign test: x < 0 for rationals, and for symbolic entries
    the sign at a point or on a cone.  Returns (reduced triple, runs), runs
    being [move, n, triple at the run's start] in application order; raises
    IterationCapExceeded when cap or more moves are needed.
    """
    runs = []
    for _ in range(cap):
        if negative(a + b):
            move, nxt = "T2", (a, b + a, c + 2 * b + a)
        elif negative(c + b):
            move, nxt = "T1", (a + 2 * b + c, b + c, c)
        else:
            return (a, b, c), runs
        if runs and runs[-1][0] == move:
            runs[-1][1] += 1
        else:
            runs.append([move, 1, (a, b, c)])
        a, b, c = nxt
    raise IterationCapExceeded(f"Selling reduction did not finish within {cap} moves")


def selling_reduce(q: Mat, cap: int = DEFAULT_CAP) -> tuple:
    """Reduce a positive definite form with nonpositive q12 into sigma.

    Returns (reduced form, ReductionWord); the word is certified against the
    reduced form.  See reduce_triple for the moves and the cap.
    """
    check_form(q)
    if q[0, 1] > 0:
        raise PositiveQ12(f"q12 = {q[0, 1]} > 0; flip the off-diagonal sign first")
    (a, b, c), runs = reduce_triple(q[0, 0], q[0, 1], q[1, 1], cap=cap)
    cur = Mat(((a, b), (b, c)))
    word = ReductionWord(runs=tuple((move, n) for move, n, _ in runs))
    # on integers: X^T q X == cur iff X^T (den q) X == den cur, and for a
    # unimodular X the lcm den of q's denominators is also cur's
    n, den = scaled(q)
    if scaled(cur) != (congruence_act(word.moves_matrix, n), den):
        raise InternalInconsistency("reduction word does not reproduce the form")
    return cur, word


# Extreme rays of sigma: rank-1 forms v v^T for v = e1, e2, e1 - e2.
_SIGMA_RAYS = (imat(1, 0, 0, 0), imat(0, 0, 0, 1), imat(1, -1, -1, 1))


@lru_cache(maxsize=1)
def _stabilizer() -> tuple:
    """(X, perm) for the six effective stabilizer elements of sigma, in stab_sigma() order.

    An integer matrix X with |det X| = 1 stabilizes sigma exactly when the
    congruence action permutes the three extreme rays; searching all entries
    in {-1, 0, 1} is exhaustive because the rays are v v^T with primitive v.
    A form in sigma is sum(l_i * ray_i), so X maps its coordinates
    (l1, l2, l3) to (l[perm[0]], l[perm[1]], l[perm[2]]).
    """
    found = []
    for entries in product((-1, 0, 1), repeat=4):
        x = imat(*entries)
        if abs(x.det()) != 1:
            continue
        if all(congruence_act(x, e) in _SIGMA_RAYS for e in _SIGMA_RAYS):
            found.append(x)
    if len(found) != 12:
        raise InternalInconsistency(f"expected 12 signed stabilizer elements, got {len(found)}")
    classes = {max(x.rows, (-x).rows) for x in found}
    if len(classes) != 6:
        raise InternalInconsistency(f"expected 6 effective classes, got {len(classes)}")
    out = []
    for rows in sorted(classes):
        x = Mat(rows)
        image = [_SIGMA_RAYS.index(congruence_act(x, e)) for e in _SIGMA_RAYS]
        out.append((x, tuple(image.index(j) for j in range(3))))
    return tuple(out)


def stab_sigma() -> tuple:
    """The six effective stabilizer elements of sigma (deduplicated by sign)."""
    return tuple(x for x, _ in _stabilizer())


def fd_representative(q: Mat) -> tuple:
    """Map a form in sigma into the fundamental domain l3 <= l1 <= l2.

    Returns (representative, stabilizer element).  A form already in the
    domain is its own representative with the identity; otherwise the first
    stabilizer element (in the fixed search order) that sorts the coordinates
    is used, and it is unique whenever the three coordinates are distinct.
    """
    coords = sigma_coords(q)  # validates the form and its membership
    l1, l2, l3 = coords
    if l3 <= l1 <= l2:
        return q, Mat.identity(2)
    for x, perm in _stabilizer():
        l1, l2, l3 = (coords[i] for i in perm)
        if l3 <= l1 <= l2:
            q2 = congruence_act(x, q)
            l1, l2, l3 = _coords(q2)
            if not l3 <= l1 <= l2:
                raise InternalInconsistency(f"stabilizer element {x.rows} does not sort {coords}")
            return q2, x
    raise InternalInconsistency("no stabilizer element sorts the sigma coordinates")


@dataclass(frozen=True)
class ThetaCurve:
    """Theta graph: two vertices joined by three edges of the given lengths."""

    le: Fraction
    le1: Fraction
    le2: Fraction

    def __post_init__(self):
        for name in ("le", "le1", "le2"):
            val = rat(getattr(self, name))
            if val <= 0:
                raise NonPositiveLength(f"{name} must be positive, got {val}")
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class DumbbellFamily:
    """Two loops joined by a bridge whose length is a free parameter t >= 0.

    The period matrix is independent of t, so the family is returned as a
    whole; t = 0 is the figure-eight special fiber.
    """

    lc1: Fraction
    lc2: Fraction

    def __post_init__(self):
        for name in ("lc1", "lc2"):
            val = rat(getattr(self, name))
            if val <= 0:
                raise NonPositiveLength(f"{name} must be positive, got {val}")
            object.__setattr__(self, name, val)


def classify_curve(q: Mat):
    """Tropical genus-2 curve with period form q (q must lie in sigma).

    Positive coordinates give a theta graph with edge lengths (l1, l2, l3).
    One vanishing coordinate gives a dumbbell; the two off-domain diagonal
    cases are remapped by a stabilizing change of basis, cross-checked here.
    """
    l1, l2, l3 = sigma_coords(q)
    zeros = (l1 == 0) + (l2 == 0) + (l3 == 0)
    if zeros == 0:
        return ThetaCurve(le=l1, le1=l2, le2=l3)
    if zeros > 1:
        raise InternalInconsistency("two vanishing coordinates contradict definiteness")
    if l3 == 0:
        remap, lengths = Mat.identity(2), (l1, l2)
    elif l2 == 0:
        remap, lengths = imat(-1, 0, -1, 1), (l1, l3)
    else:
        remap, lengths = imat(1, -1, 0, -1), (l3, l2)
    diag = congruence_act(remap, q)
    if diag != Mat(((lengths[0], 0), (0, lengths[1]))):
        raise InternalInconsistency(
            f"dumbbell remap gave {diag.rows}, expected diag{lengths}")
    return DumbbellFamily(lc1=lengths[0], lc2=lengths[1])
