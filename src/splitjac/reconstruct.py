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

The covers are read and certified on integers: Z is checked to have
determinant +-1, so Z^{-1} = det(Z) * adjugate(Z) and the slopes are integer
products.  Each cover's harmonicity, mass identity and generic fiber degree
are checked on the numerators of its offsets and of its length / target
length ratios over one denominator; only the outputs (lengths and offsets) and
the error messages are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InternalInconsistency, NonIntegralSlope, ValidationError, WrongK
from .matrices import SFLIP, Mat, adjugate, cleared, imat, scaled
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


_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def _generic_fiber_degree(slopes, offsets, ratios, den) -> int:
    """Exact weighted fiber count over a generic point 1/p of the target R/Z.

    Edge j starts at offsets[j] / den and ends slopes[j] * ratios[j] / den
    further on; positions are compared in units of 1/(den * p).
    """
    ends = [o + s * r for s, o, r in zip(slopes, offsets, ratios)]
    for p in _PRIMES:
        m = den * p
        if all((x * p - den) % m for x in (*offsets, *ends)):
            break
    else:
        raise InternalInconsistency("no generic test point found")
    # offset + slope * t / L == 1/p + j has t in (0, length) for the integers j
    # strictly between the edge's start and end, neither of which is the point
    total = 0
    for s, o, e in zip(slopes, offsets, ends):
        a0, a1 = o * p - den, e * p - den
        total += (max(a0, a1) // m - min(a0, a1) // m) * abs(s)
    return total


def _check_cover(cover: Cover, kind: str) -> None:
    """Harmonicity, the mass identity and the generic fiber degree, on integers.

    Every offset and every length / target_length is written over one
    denominator den (the bridge, with no length, runs 0); the messages are
    built from the rationals only on failure.
    """
    edges = cover.edges
    slopes = {e.edge: e.slope for e in edges}
    if kind == "theta":
        balanced = slopes["e"] == slopes["e1"] + slopes["e2"]
    else:
        balanced = slopes["bridge"] == 0
    if not balanced:
        raise InternalInconsistency(f"cover not harmonic: slopes {slopes}")
    nums, n_den = cleared((cover.target_length, *(e.offset for e in edges),
                           *(0 if e.length is None else e.length for e in edges)))
    n = len(edges)
    den = n_den * nums[0]  # length / target_length == n_length * n_den / den
    offsets = [o * nums[0] for o in nums[1:n + 1]]
    ratios = [r * n_den for r in nums[n + 1:]]
    edge_slopes = [e.slope for e in edges]
    if sum(s * s * r for s, r in zip(edge_slopes, ratios)) != cover.degree * den:
        mass = sum(Fraction(e.slope) ** 2 * e.length for e in edges if e.length is not None)
        raise InternalInconsistency(
            f"mass identity failed: {mass} != {cover.degree} * {cover.target_length}")
    fiber = _generic_fiber_degree(edge_slopes, offsets, ratios, den)
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
    x, den = scaled(trace.x)
    z = SFLIP @ x @ SFLIP
    det = z.det()
    if den != 1 or det not in (1, -1):
        raise NonIntegralSlope(f"change of basis is not unimodular: {trace.x.rows}")
    # z^-1 == det z * adjugate(z), so the slopes are integers
    phi = imat(1, -sd.k, 0, sd.d)
    slope_mat = phi.T @ adjugate(z).scale(det).T @ w

    covers = []
    for label, slopes, target_len in zip(("circle1", "circle2"), slope_mat.rows,
                                         (sd.lp, sd.l)):
        offsets = [Fraction(0)] * 3
        if kind == "theta":
            # e1 and e2 start at P1, whose image is reached along e
            (n_e, n_target), _ = cleared((lengths[0], target_len))
            offsets[1] = offsets[2] = Fraction(slopes[0] * n_e % n_target, n_target)
        edges = tuple(EdgeMap(edge=name, slope=slope, offset=offset, length=length)
                      for name, slope, offset, length in zip(names, slopes, offsets, lengths))
        cover = Cover(target=label, target_length=target_len, degree=sd.d, edges=edges)
        _check_cover(cover, kind)
        covers.append(cover)
    return CoverPair(to_first=covers[0], to_second=covers[1])
