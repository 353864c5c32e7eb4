"""End-to-end curve reconstruction and the two certified harmonic covers."""

import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from math import floor
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import splitjac.matrices as matrices
import splitjac.reconstruct as reconstruct
import splitjac.selling as selling
from conftest import positive_rationals, splitting_data
from splitjac.errors import (
    InternalInconsistency,
    NonIntegralSlope,
    SplitJacError,
    ValidationError,
    WrongK,
)
from splitjac.matrices import Mat, congruence_act, imat, inv2, qmat
from splitjac.reconstruct import (
    Cover,
    CoverPair,
    EdgeMap,
    _check_cover,
    boundary_witness,
    build_covers,
    period_matrix,
    torelli_preimage,
)
from splitjac.selling import (
    SFLIP,
    DumbbellFamily,
    ReductionWord,
    ThetaCurve,
    in_fundamental_domain,
    sigma_coords,
)
from splitjac.splitting import SplittingData


@pytest.mark.parametrize("sd", [SplittingData(18, 7, 3, 1), SplittingData(10 ** 5, 61803, 1, 1)],
                         ids=["18-7", "golden-ratio-k"])
def test_torelli_builds_the_moves_product_once(monkeypatch, sd):
    builds = []
    build = ReductionWord.__dict__["moves_matrix"].func
    counted = cached_property(lambda word: builds.append(word) or build(word))
    counted.__set_name__(ReductionWord, "moves_matrix")
    monkeypatch.setattr(ReductionWord, "moves_matrix", counted)
    trace = torelli_preimage(sd)
    assert len(builds) == 1
    assert trace.x == trace.word.matrix()
    assert congruence_act(trace.x, trace.qpp) == trace.qtilde


def test_torelli_golden_18_7():
    trace = torelli_preimage(SplittingData(d=18, k=7, lp=3, l=1))
    assert trace.word.moves == ("T1", "T1", "T2")
    assert trace.qred == qmat(Fraction(26, 9), Fraction(-5, 3), Fraction(-5, 3), 2)
    assert trace.qtilde == qmat(Fraction(14, 9), Fraction(-1, 3), Fraction(-1, 3), 2)
    assert congruence_act(trace.x, trace.qpp) == trace.qtilde
    assert trace.curve == ThetaCurve(Fraction(11, 9), Fraction(5, 3), Fraction(1, 3))


def test_torelli_golden_2_1():
    trace = torelli_preimage(SplittingData(d=2, k=1, lp=1, l=3))
    assert trace.qpp == qmat(2, -1, -1, 2)
    assert trace.word.moves == ()
    assert trace.curve == ThetaCurve(1, 1, 1)
    pm = period_matrix(trace.curve)
    assert pm.kind == "theta"
    assert pm.q == qmat(2, 1, 1, 2)


def test_torelli_golden_16_1():
    trace = torelli_preimage(SplittingData(d=16, k=1, lp=3, l=5))
    assert trace.word.moves == ("T1",) * 5
    assert trace.word.stab == imat(0, 1, -1, 1)
    assert trace.x == imat(0, 1, -1, 6)
    assert trace.curve == DumbbellFamily(Fraction(1, 2), 30)
    assert trace.qtilde.det() == 15
    pm = period_matrix(trace.curve)
    assert pm.kind == "dumbbell"
    assert pm.q == qmat(Fraction(1, 2), 0, 0, 30)


def test_torelli_golden_24_1():
    trace = torelli_preimage(SplittingData(d=24, k=1, lp=3, l=5))
    assert trace.word.moves == ("T1",) * 8
    assert trace.curve == DumbbellFamily(Fraction(1, 3), 45)


def test_torelli_golden_3_2():
    trace = torelli_preimage(SplittingData(d=3, k=2, lp=1, l=2))
    assert trace.curve == DumbbellFamily(1, 2)


@given(splitting_data(max_d=12, max_num=16, max_den=8))
def test_torelli_properties(sd):
    trace = torelli_preimage(sd)
    assert in_fundamental_domain(trace.qtilde)
    assert trace.qtilde.det() == sd.lp * sd.l
    assert abs(trace.x.det()) == 1
    assert congruence_act(trace.x, trace.qpp) == trace.qtilde
    pm = period_matrix(trace.curve)
    assert pm.q.det() == sd.lp * sd.l
    if isinstance(trace.curve, ThetaCurve):
        assert pm.q == congruence_act(SFLIP, trace.qtilde)
        assert trace.curve == ThetaCurve(*sigma_coords(trace.qtilde))


def test_period_matrix_rejects_a_non_curve():
    with pytest.raises(ValidationError, match="not a curve"):
        period_matrix("not a curve")


def test_boundary_tests_goldens():
    assert boundary_witness(SplittingData(d=16, k=1, lp=3, l=5)) == 6
    assert boundary_witness(SplittingData(d=24, k=1, lp=3, l=5)) == 9
    assert boundary_witness(SplittingData(d=2, k=1, lp=1, l=3)) is None
    assert boundary_witness(SplittingData(d=3, k=2, lp=1, l=2)) == 1
    assert boundary_witness(SplittingData(d=3, k=2, lp=1, l=1)) is None


def test_boundary_tests_wrong_k():
    # (3, 2) has k = d - 1 and (2, 1) has k = 1 = d - 1, so both are accepted
    assert boundary_witness(SplittingData(d=3, k=2, lp=1, l=1)) is None
    assert boundary_witness(SplittingData(d=2, k=1, lp=1, l=1)) == 1
    for d, k in ((5, 2), (7, 3)):
        with pytest.raises(WrongK):
            boundary_witness(SplittingData(d=d, k=k, lp=1, l=1))


def test_boundary_witness_kd1_matches_curve_type():
    # the k = d - 1 twin of test_06: the witness flags exactly the dumbbells
    lengths = sorted({Fraction(n, m) for n in range(1, 7) for m in range(1, 7)})
    dumbbells = 0
    for d in range(3, 9):
        for lp in lengths:
            for l in lengths:
                sd = SplittingData(d=d, k=d - 1, lp=lp, l=l)
                dumbbell = isinstance(torelli_preimage(sd).curve, DumbbellFamily)
                assert (boundary_witness(sd) is not None) == dumbbell, sd
                dumbbells += dumbbell
    assert dumbbells > 0


def _slopes(cover) -> dict:
    return {e.edge: e.slope for e in cover.edges}


def test_covers_golden_2_1():
    trace = torelli_preimage(SplittingData(d=2, k=1, lp=1, l=3))
    assert trace.x == Mat.identity(2)  # qpp is already normalized, so no-op
    pair = build_covers(trace)
    assert _slopes(pair.to_first) == {"e": 1, "e1": 0, "e2": 1}
    assert _slopes(pair.to_second) == {"e": -1, "e1": -2, "e2": 1}
    offs1 = {e.edge: e.offset for e in pair.to_first.edges}
    offs2 = {e.edge: e.offset for e in pair.to_second.edges}
    assert offs1 == {"e": 0, "e1": 0, "e2": 0}
    assert offs2 == {"e": 0, "e1": Fraction(2, 3), "e2": Fraction(2, 3)}
    assert pair.to_first.degree == pair.to_second.degree == 2


def test_covers_golden_16_1():
    trace = torelli_preimage(SplittingData(d=16, k=1, lp=3, l=5))
    pair = build_covers(trace)
    assert _slopes(pair.to_first) == {"e1": 6, "e2": -1, "bridge": 0}
    assert _slopes(pair.to_second) == {"e1": 10, "e2": 1, "bridge": 0}
    assert pair.to_first.target_length == 3
    assert pair.to_second.target_length == 5
    bridge = [e for e in pair.to_first.edges if e.edge == "bridge"][0]
    assert bridge.length is None


def _cycle_slope_matrix(pair, kind) -> Mat:
    s1, s2 = _slopes(pair.to_first), _slopes(pair.to_second)
    if kind == "theta":
        return imat(s1["e"], -s1["e1"], s2["e"], -s2["e1"])
    return imat(s1["e1"], s1["e2"], s2["e1"], s2["e2"])


@given(splitting_data(max_d=12, max_num=16, max_den=8))
def test_covers_properties(sd):
    trace = torelli_preimage(sd)
    pair = build_covers(trace)
    kind = "theta" if isinstance(trace.curve, ThetaCurve) else "dumbbell"
    for cover, length in ((pair.to_first, sd.lp), (pair.to_second, sd.l)):
        assert cover.degree == sd.d
        assert cover.target_length == length
        mass = sum(Fraction(e.slope) ** 2 * e.length
                   for e in cover.edges if e.length is not None)
        assert mass == sd.d * length
        assert all(0 <= e.offset < 1 for e in cover.edges)
        slopes = _slopes(cover)
        if kind == "theta":
            assert slopes["e"] == slopes["e1"] + slopes["e2"]
        else:
            assert slopes["bridge"] == 0
    # the two covers together map the curve's cycle lattice onto an index-d
    # sublattice of the product of circles
    assert abs(_cycle_slope_matrix(pair, kind).det()) == sd.d


# --- the Fraction cover certificate, kept as the oracle of the integer one ---

def oracle_count_points_open(a: Fraction, b: Fraction) -> int:
    """Number of integers in the open interval (a, b), neither endpoint integral."""
    if a.denominator == 1 or b.denominator == 1:
        raise InternalInconsistency("generic point hit an edge endpoint")
    return floor(b) - floor(a)


def oracle_generic_fiber_degree(cover: Cover) -> int:
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
        a0 = e.offset - point
        a1 = a0 + Fraction(e.slope) * e.length / cover.target_length
        npts = oracle_count_points_open(min(a0, a1), max(a0, a1))
        total += npts * abs(e.slope)
    return total


def oracle_check_cover(cover: Cover, kind: str) -> None:
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
    fiber = oracle_generic_fiber_degree(cover)
    if fiber != cover.degree:
        raise InternalInconsistency(f"generic fiber degree {fiber} != {cover.degree}")


def oracle_slope_matrix(trace) -> Mat:
    """The slopes by a Fraction inverse of z = S x S."""
    sd = trace.sd
    w = (Mat(((1, 0, 1), (0, -1, 1))) if isinstance(trace.curve, ThetaCurve)
         else Mat(((1, 0, 0), (0, 1, 0))))
    slope_mat = imat(1, -sd.k, 0, sd.d).T @ inv2(SFLIP @ trace.x @ SFLIP).T @ w
    if not slope_mat.is_integral():
        raise NonIntegralSlope(f"slope matrix not integral: {slope_mat.rows}")
    return slope_mat.to_int()


def oracle_build_covers(trace) -> CoverPair:
    sd, curve = trace.sd, trace.curve
    if isinstance(curve, ThetaCurve):
        kind, names = "theta", ("e", "e1", "e2")
        lengths = (curve.le, curve.le1, curve.le2)
    else:
        kind, names = "dumbbell", ("e1", "e2", "bridge")
        lengths = (curve.lc1, curve.lc2, None)
    slope_mat = oracle_slope_matrix(trace)
    covers = []
    for row, (label, target_len) in enumerate((("circle1", sd.lp), ("circle2", sd.l))):
        slopes = [slope_mat[row, j] for j in range(3)]
        edges = []
        for j, name in enumerate(names):
            if kind == "theta" and name in ("e1", "e2"):
                offset = (Fraction(slopes[0]) * lengths[0] / target_len) % 1
            else:
                offset = Fraction(0)
            edges.append(EdgeMap(edge=name, slope=slopes[j], offset=offset, length=lengths[j]))
        cover = Cover(target=label, target_length=target_len, degree=sd.d, edges=tuple(edges))
        oracle_check_cover(cover, kind)
        covers.append(cover)
    return CoverPair(to_first=covers[0], to_second=covers[1])


@st.composite
def witness_data(draw):
    """Dumbbell data at k = 1 or d - 1 with boundary witness alpha: alpha*l == (d-alpha)*lp."""
    d = draw(st.integers(min_value=2, max_value=64))
    alpha = draw(st.integers(min_value=1, max_value=d - 1))
    lp = draw(positive_rationals(max_num=24, max_den=8))
    sd = SplittingData(d=d, k=draw(st.sampled_from((1, d - 1))), lp=lp,
                       l=(d - alpha) * lp / alpha)
    assert boundary_witness(sd) == alpha
    return sd


GOLDEN_K_10_4 = 6179  # the k coprime to 10^4 nearest to 10^4 / golden ratio

COVER_DATA = st.one_of(
    splitting_data(max_d=64, max_num=24, max_den=8),
    witness_data(),
    st.builds(lambda lp, l: SplittingData(d=10 ** 4, k=GOLDEN_K_10_4, lp=lp, l=l),
              positive_rationals(max_num=24, max_den=8),
              positive_rationals(max_num=24, max_den=8)),
)


def _kind(trace) -> str:
    return "theta" if isinstance(trace.curve, ThetaCurve) else "dumbbell"


@given(COVER_DATA)
def test_covers_match_the_fraction_oracle(sd):
    trace = torelli_preimage(sd)
    pair = build_covers(trace)
    assert pair == oracle_build_covers(trace)  # slopes, offsets, lengths and degrees
    assert all(type(e.slope) is int for c in (pair.to_first, pair.to_second) for e in c.edges)
    if sd.k in (1, sd.d - 1):
        assert (boundary_witness(sd) is not None) == (_kind(trace) == "dumbbell")


def _outcome(check, cover, kind):
    try:
        check(cover, kind)
    except SplitJacError as exc:
        return type(exc), str(exc)
    return None


def _mutations(cover):
    """Each edge's slope +-1, offset + 1/(2d) and length * 2, and the degree +-1."""
    shift = Fraction(1, 2 * cover.degree)
    for j, e in enumerate(cover.edges):
        edges = [replace(e, slope=e.slope + 1), replace(e, slope=e.slope - 1),
                 replace(e, offset=e.offset + shift)]
        if e.length is not None:
            edges.append(replace(e, length=2 * e.length))
        for edge in edges:
            yield replace(cover, edges=cover.edges[:j] + (edge,) + cover.edges[j + 1:])
    yield replace(cover, degree=cover.degree + 1)
    yield replace(cover, degree=cover.degree - 1)


def _mutated_outcomes(sd):
    trace = torelli_preimage(sd)
    pair, kind = build_covers(trace), _kind(trace)
    for cover in (pair.to_first, pair.to_second):
        for mutated in _mutations(cover):
            yield _outcome(_check_cover, mutated, kind), _outcome(oracle_check_cover, mutated, kind)


@given(COVER_DATA)
def test_mutated_covers_get_the_oracles_outcome(sd):
    for new, old in _mutated_outcomes(sd):
        assert new == old


HAND_BUILT_COVERS = {
    # e ends at 1/7, where no edge starts: the test point must move on to 1/11
    "end-at-the-point": Cover("circle1", Fraction(1), 3, (
        EdgeMap("e", 1, Fraction(16, 21), Fraction(8, 21)),
        EdgeMap("e1", -1, Fraction(4, 21), Fraction(9, 7)),
        EdgeMap("e2", 2, Fraction(3, 7), Fraction(1, 3)))),
    # flat edges start at every candidate point 1/7, ..., 1/67
    "no-generic-point": Cover("circle1", Fraction(1), 1, (
        EdgeMap("e", 1, Fraction(0), Fraction(1, 2)),
        EdgeMap("e1", 1, Fraction(0), Fraction(1, 2)),
        EdgeMap("e2", 0, Fraction(0), Fraction(1)),
        *(EdgeMap(f"flat{p}", 0, Fraction(1, p), Fraction(1)) for p in reconstruct._PRIMES))),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_COVERS))
def test_hand_built_covers_get_the_oracles_outcome(name):
    cover = HAND_BUILT_COVERS[name]
    outcome = _outcome(_check_cover, cover, "theta")
    assert outcome is not None and outcome == _outcome(oracle_check_cover, cover, "theta")


def test_mutated_covers_reach_every_failure_path():
    seen = set()
    for sd in (SplittingData(2, 1, 2, 1), SplittingData(18, 7, 3, 1),
               SplittingData(16, 1, 3, 5)):
        for new, old in _mutated_outcomes(sd):
            assert new == old
            if new is not None:
                seen.add((new[0], re.match("[a-z ]*[a-z]", new[1]).group()))
    assert seen == {(InternalInconsistency, "cover not harmonic"),
                    (InternalInconsistency, "mass identity failed"),
                    (InternalInconsistency, "generic fiber degree")}


@pytest.mark.parametrize("factor", [imat(1, 0, 0, 2), qmat(1, Fraction(1, 2), 0, 1)],
                         ids=["det-2", "non-integral"])
def test_build_covers_rejects_a_non_unimodular_change_of_basis(factor):
    trace = torelli_preimage(SplittingData(18, 7, 3, 1))
    with pytest.raises(NonIntegralSlope, match="not unimodular"):
        build_covers(replace(trace, x=trace.x @ factor))


def test_cover_certificate_survives_optimized_mode():
    # python -O strips assert statements; the cover certificate must not be one
    src = Path(reconstruct.__file__).resolve().parents[1]
    code = (
        "from dataclasses import replace\n"
        "from splitjac.errors import InternalInconsistency, NonIntegralSlope\n"
        "from splitjac.matrices import imat\n"
        "from splitjac.reconstruct import _check_cover, build_covers, torelli_preimage\n"
        "from splitjac.splitting import SplittingData\n"
        "trace = torelli_preimage(SplittingData(18, 7, 3, 1))\n"
        "cover = build_covers(trace).to_first\n"
        "unbalanced = (replace(cover.edges[0], slope=0),) + cover.edges[1:]\n"
        "for bad in (replace(cover, degree=cover.degree + 1), replace(cover, edges=unbalanced)):\n"
        "    try:\n"
        "        _check_cover(bad, 'theta')\n"
        "    except InternalInconsistency:\n"
        "        print('caught')\n"
        "try:\n"
        "    build_covers(replace(trace, x=trace.x @ imat(1, 0, 0, 2)))\n"
        "except NonIntegralSlope:\n"
        "    print('caught')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, timeout=60, check=True)
    assert out.stdout == "caught\n" * 3


_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
                 "__neg__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def test_word_certificate_and_cover_checks_compare_only_ints(monkeypatch):
    # the form is reduced on Fractions; what follows in selling_reduce (the word
    # certificate) and the whole of _check_cover run no Fraction operator
    fraction_ops, values, counting = [], [], [False]
    for name in _FRACTION_OPS:
        def counted(*args, op=getattr(Fraction, name), name=name):
            if counting[0]:
                fraction_ops.append(name)
            return op(*args)
        monkeypatch.setattr(Fraction, name, counted)
    reduce_triple, scaled, cleared = selling.reduce_triple, selling.scaled, reconstruct.cleared

    def reduced(*args, **kwargs):
        out = reduce_triple(*args, **kwargs)
        counting[0] = True
        return out

    def recorded_scaled(a):
        n, den = scaled(a)
        values.extend((*n.rows[0], *n.rows[1], den))
        return n, den

    def recorded_cleared(vals):
        ints, den = cleared(vals)
        values.extend((*ints, den))
        return ints, den
    traces = [torelli_preimage(sd) for sd in (
        SplittingData(18, 7, 3, 1), SplittingData(16, 1, 3, 5),
        SplittingData(10 ** 4, GOLDEN_K_10_4, Fraction(7, 3), Fraction(5, 2)))]
    pairs = [build_covers(trace) for trace in traces]
    monkeypatch.setattr(selling, "reduce_triple", reduced)
    monkeypatch.setattr(selling, "scaled", recorded_scaled)
    monkeypatch.setattr(reconstruct, "cleared", recorded_cleared)
    for trace, pair in zip(traces, pairs):
        selling.selling_reduce(trace.qpp)
        for cover in (pair.to_first, pair.to_second):
            counting[0] = True
            _check_cover(cover, _kind(trace))
        counting[0] = False
        assert fraction_ops == [] and values and all(type(v) is int for v in values)
    counting[0] = True
    Fraction(1, 2) + 1
    counting[0] = False
    assert fraction_ops == ["__add__"]  # the counter is live


def test_build_covers_makes_no_inv2_call(monkeypatch):
    calls, inv2 = [], matrices.inv2

    def counted(a):
        calls.append(a)
        return inv2(a)
    for name, module in list(sys.modules.items()):
        if name.startswith("splitjac") and getattr(module, "inv2", None) is inv2:
            monkeypatch.setattr(module, "inv2", counted)
    for sd in (SplittingData(18, 7, 3, 1), SplittingData(16, 1, 3, 5)):
        build_covers(torelli_preimage(sd))
    assert calls == []
    matrices.inv2(imat(1, 0, 0, 1))
    assert len(calls) == 1  # the counter is live
