"""From splitting data to the tropical genus-2 curve and its two covers.

The pipeline is: form the Selling-ready period form, reduce it into sigma,
normalize into the fundamental domain, and read off the curve.  The total
change of basis X (with X^T qpp X = qtilde) also determines the two harmonic
covers of the original circles: slopes on the curve's edges are the rows of

    slope_matrix = phi^T @ Z^{-T} @ W,      Z = S X S,  S = diag(1, -1),

where phi = [[1,-k],[0,d]] is the normalized splitting-isogeny matrix and W
lists cycle coefficients of the edges (theta graph: edges e from P0 to P1 and
e1, e2 from P1 to P0, cycle basis (e+e2, e2-e1); dumbbell: the two loops, the
bridge is contracted).  Slopes are integers w.r.t. each edge's orientation;
row 1 covers the first circle (length lp), row 2 the second (length l).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor

from .errors import InternalInconsistency, NonIntegralSlope, ValidationError, WrongK
from .matrices import SFLIP, Mat, imat, inv2
from .selling import (
    DEFAULT_CAP,
    DumbbellFamily,
    ReductionWord,
    ThetaCurve,
    classify_curve,
    fd_representative,
    selling_reduce,
)
from .splitting import SplittingData, qpp


@dataclass(frozen=True)
class PipelineTrace:
    """Everything the reduction pipeline produced, with the certified word."""

    sd: SplittingData
    qpp: Mat              # Selling-ready input form
    word: ReductionWord   # moves + stabilizer; word.matrix() == x
    qred: Mat             # reduced form (in sigma, before domain normalization)
    qtilde: Mat           # fundamental-domain representative
    x: Mat                # total change of basis: x^T @ qpp @ x == qtilde
    curve: object         # ThetaCurve | DumbbellFamily


def torelli_preimage(sd: SplittingData, cap: int = DEFAULT_CAP) -> PipelineTrace:
    q0 = qpp(sd)
    qred, word = selling_reduce(q0, cap=cap)
    qtilde, stab = fd_representative(qred)
    # x^T q0 x == qtilde: selling_reduce certifies the moves (and builds their
    # product once), and fd_representative returns qtilde = stab^T qred stab.
    x = word.moves_matrix @ stab
    word = replace(word, stab=stab)
    curve = classify_curve(qtilde)
    return PipelineTrace(sd=sd, qpp=q0, word=word, qred=qred, qtilde=qtilde, x=x,
                         curve=curve)


@dataclass(frozen=True)
class PeriodMatrix:
    q: Mat
    kind: str  # "theta" | "dumbbell"


def period_matrix(curve) -> PeriodMatrix:
    """Period matrix of the curve in its cycle basis.

    For a dumbbell the result does not depend on the bridge length.
    """
    if isinstance(curve, ThetaCurve):
        q = Mat(((curve.le + curve.le2, curve.le2),
                 (curve.le2, curve.le1 + curve.le2)))
        return PeriodMatrix(q=q, kind="theta")
    if isinstance(curve, DumbbellFamily):
        q = Mat(((curve.lc1, 0), (0, curve.lc2)))
        return PeriodMatrix(q=q, kind="dumbbell")
    raise ValidationError(f"not a curve: {curve!r}")


def boundary_witness(sd: SplittingData):
    """Dumbbell witness for k = 1 or k = d - 1; any other k raises WrongK.

    The witness is the alpha in 1..d-1 with alpha*l = (d - alpha)*lp, or None
    when there is none.  The curve is a dumbbell exactly when it exists.
    """
    if sd.k not in (1, sd.d - 1):
        raise WrongK(f"witness requires k = 1 or k = d-1, got d = {sd.d}, k = {sd.k}")
    # alpha * l == (d - alpha) * lp  <=>  alpha = d * lp / (lp + l)
    alpha = (sd.d * sd.lp) / (sd.lp + sd.l)
    if alpha.denominator == 1 and 1 <= alpha <= sd.d - 1:
        return int(alpha)
    return None


@dataclass(frozen=True)
class EdgeMap:
    """Restriction of a cover to one edge: integer slope, image of the edge's
    start vertex on the normalized target circle R/Z, and the edge length
    (None for the free-length bridge)."""

    edge: str
    slope: int
    offset: Fraction
    length: Fraction | None


@dataclass(frozen=True)
class Cover:
    """Harmonic degree-d cover of one of the two circles."""

    target: str             # "circle1" (length lp) | "circle2" (length l)
    target_length: Fraction
    degree: int
    edges: tuple


@dataclass(frozen=True)
class CoverPair:
    to_first: Cover   # cover of the length-lp circle
    to_second: Cover  # cover of the length-l circle


def _count_points_open(a: Fraction, b: Fraction) -> int:
    """Number of integers in the open interval (a, b), neither endpoint integral."""
    if a.denominator == 1 or b.denominator == 1:
        raise InternalInconsistency("generic point hit an edge endpoint")
    return floor(b) - floor(a)


def _generic_fiber_degree(cover: Cover) -> int:
    """Exact weighted fiber count over a generic rational point of the target."""
    special = set()
    for e in cover.edges:
        special.add(e.offset % 1)
        if e.length is not None:
            special.add((e.offset + Fraction(e.slope) * e.length / cover.target_length) % 1)
    point = None
    for prime in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67):
        cand = Fraction(1, prime)
        if cand not in special:
            point = cand
            break
    if point is None:
        raise InternalInconsistency("no generic test point found")
    total = 0
    for e in cover.edges:
        if e.slope == 0 or e.length is None:
            continue
        # offset + slope * t / L == point + j has t in (0, length) exactly for
        # integers j strictly between a0 and a1:
        a0 = e.offset - point
        a1 = a0 + Fraction(e.slope) * e.length / cover.target_length
        npts = _count_points_open(min(a0, a1), max(a0, a1))
        total += npts * abs(e.slope)
    return total


def _check_cover(cover: Cover, kind: str) -> None:
    slopes = {e.edge: e.slope for e in cover.edges}
    if kind == "theta":
        balanced = slopes["e"] == slopes["e1"] + slopes["e2"]
    else:
        balanced = slopes["bridge"] == 0
    if not balanced:
        raise InternalInconsistency(f"cover not harmonic: slopes {slopes}")
    mass = sum(Fraction(e.slope) ** 2 * e.length
               for e in cover.edges if e.length is not None)
    if mass != cover.degree * cover.target_length:
        raise InternalInconsistency(
            f"mass identity failed: {mass} != {cover.degree} * {cover.target_length}")
    fiber = _generic_fiber_degree(cover)
    if fiber != cover.degree:
        raise InternalInconsistency(f"generic fiber degree {fiber} != {cover.degree}")


def build_covers(trace: PipelineTrace) -> CoverPair:
    """The two harmonic covers restricted to edges, certified three ways."""
    sd, curve = trace.sd, trace.curve
    if isinstance(curve, ThetaCurve):
        kind = "theta"
        names = ("e", "e1", "e2")
        lengths = (curve.le, curve.le1, curve.le2)
        w = Mat(((1, 0, 1), (0, -1, 1)))
    else:
        kind = "dumbbell"
        names = ("e1", "e2", "bridge")
        lengths = (curve.lc1, curve.lc2, None)
        w = Mat(((1, 0, 0), (0, 1, 0)))
    z = SFLIP @ trace.x @ SFLIP
    phi = imat(1, -sd.k, 0, sd.d)
    slope_mat = phi.T @ inv2(z).T @ w
    if not slope_mat.is_integral():
        raise NonIntegralSlope(f"slope matrix not integral: {slope_mat.rows}")
    slope_mat = slope_mat.to_int()

    covers = []
    for row, (label, target_len) in enumerate(
            (("circle1", sd.lp), ("circle2", sd.l))):
        slopes = [slope_mat[row, j] for j in range(3)]
        edges = []
        for j, name in enumerate(names):
            if kind == "theta" and name in ("e1", "e2"):
                # these edges start at P1, whose image is reached along e
                offset = (Fraction(slopes[0]) * lengths[0] / target_len) % 1
            else:
                offset = Fraction(0)
            edges.append(EdgeMap(edge=name, slope=slopes[j], offset=offset,
                                 length=lengths[j]))
        cover = Cover(target=label, target_length=target_len, degree=sd.d,
                      edges=tuple(edges))
        _check_cover(cover, kind)
        covers.append(cover)
    return CoverPair(to_first=covers[0], to_second=covers[1])
