"""End-to-end curve reconstruction and the two certified harmonic covers."""

from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given

from conftest import splitting_data
from splitjac.errors import ValidationError, WrongK
from splitjac.matrices import Mat, congruence_act, imat, qmat
from splitjac.reconstruct import (
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
