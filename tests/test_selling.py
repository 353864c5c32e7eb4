"""Selling reduction, the stabilizer of sigma, and curve classification.

The worked golden chain is the form [[54,-21],[-21,74/9]] (the degree-18,
k=7 gluing of circles of lengths 3 and 1): two T1 moves and one T2 move
reduce it, and the stabilizer then sorts the cone coordinates into the
fundamental domain.
"""

from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, strategies as st

import splitjac.selling as selling
from conftest import pd_forms, reduced_forms
from splitjac.errors import (
    InternalInconsistency,
    IterationCapExceeded,
    NotInSigma,
    NotPositiveDefinite,
    PositiveQ12,
    ValidationError,
)
from splitjac.matrices import Mat, congruence_act, imat, qmat
from splitjac.selling import (
    SFLIP,
    DumbbellFamily,
    ReductionWord,
    T1,
    T2,
    ThetaCurve,
    classify_curve,
    fd_representative,
    in_fundamental_domain,
    in_sigma,
    reduce_triple,
    selling_params,
    selling_reduce,
    sigma_coords,
    stab_sigma,
)

Q_GOLDEN = qmat(54, -21, -21, Fraction(74, 9))


def test_selling_params_golden():
    p = selling_params(Q_GOLDEN)
    assert (p.p12, p.p13, p.p23) == (-21, -33, Fraction(115, 9))
    assert not p.all_nonpositive()
    assert not in_sigma(Q_GOLDEN)


def test_selling_reduce_golden_chain():
    qred, word = selling_reduce(Q_GOLDEN)
    assert word.moves == ("T1", "T1", "T2")
    assert word.counts() == (1, 2)
    assert qred == qmat(Fraction(26, 9), Fraction(-5, 3), Fraction(-5, 3), 2)
    p = selling_params(qred)
    assert (p.p12, p.p13, p.p23) == (Fraction(-5, 3), Fraction(-11, 9), Fraction(-1, 3))
    assert sigma_coords(qred) == (Fraction(11, 9), Fraction(1, 3), Fraction(5, 3))
    assert congruence_act(word.matrix(), Q_GOLDEN) == qred


def test_fd_representative_golden():
    qred, _ = selling_reduce(Q_GOLDEN)
    qtilde, stab = fd_representative(qred)
    assert qtilde == qmat(Fraction(14, 9), Fraction(-1, 3), Fraction(-1, 3), 2)
    assert sigma_coords(qtilde) == (Fraction(11, 9), Fraction(5, 3), Fraction(1, 3))
    assert in_fundamental_domain(qtilde)
    assert congruence_act(stab, qred) == qtilde
    curve = classify_curve(qtilde)
    assert curve == ThetaCurve(Fraction(11, 9), Fraction(5, 3), Fraction(1, 3))


def test_fd_representative_validates_once(monkeypatch):
    import splitjac.selling as selling
    from splitjac.reconstruct import torelli_preimage
    from splitjac.splitting import SplittingData

    calls = []
    check_form = selling.check_form
    monkeypatch.setattr(selling, "check_form", lambda q: calls.append(q) or check_form(q))
    qred, _ = selling_reduce(Q_GOLDEN)
    calls.clear()
    fd_representative(qred)
    assert calls == [qred]
    calls.clear()
    torelli_preimage(SplittingData(d=18, k=7, lp=3, l=1))
    assert len(calls) == 3  # selling_reduce, fd_representative, classify_curve
    # public callers are still validated
    with pytest.raises(NotPositiveDefinite):
        fd_representative(qmat(1, 0, 0, -1))
    with pytest.raises(NotInSigma):
        fd_representative(Q_GOLDEN)


def test_reduction_word_matrix_order():
    word = ReductionWord(runs=(("T1", 2), ("T2", 1)), preflip=True, stab=imat(0, 1, 1, 0))
    assert word.moves == ("T1", "T1", "T2")
    assert word.matrix() == SFLIP @ T1 @ T1 @ T2 @ imat(0, 1, 1, 0)
    assert ReductionWord().matrix() == Mat.identity(2)
    assert ReductionWord(runs=(("T1", 5),)).counts() == (5,)


@pytest.mark.parametrize("mutate", [
    lambda runs: runs[:-1] + [[runs[-1][0], runs[-1][1] + 1, runs[-1][2]]],
    lambda runs: runs[:-1] + ([[runs[-1][0], runs[-1][1] - 1, runs[-1][2]]]
                             if runs[-1][1] > 1 else []),
], ids=["one-move-more", "one-move-fewer"])
def test_word_certificate_rejects_a_miscounted_word(monkeypatch, mutate):
    def miscounted(*args, **kwargs):
        final, runs = reduce_triple(*args, **kwargs)
        return final, mutate(runs)
    monkeypatch.setattr(selling, "reduce_triple", miscounted)
    with pytest.raises(InternalInconsistency, match="does not reproduce"):
        selling_reduce(Q_GOLDEN)


def test_selling_reduce_rejects_positive_q12():
    with pytest.raises(PositiveQ12):
        selling_reduce(qmat(2, 1, 1, 2))


def test_selling_reduce_cap():
    with pytest.raises(IterationCapExceeded):
        selling_reduce(Q_GOLDEN, cap=2)


def test_selling_reduce_validates():
    with pytest.raises(NotPositiveDefinite):
        selling_reduce(qmat(1, -2, -2, 1))
    with pytest.raises(ValidationError):
        selling_reduce(qmat(1, 0, 1, 1))  # not symmetric


def test_sigma_coords_outside():
    # qmat(2, 1, 1, 2) has l3 <= l1 <= l2 but l3 = -1 < 0
    for q in (Q_GOLDEN, qmat(2, 1, 1, 2)):
        with pytest.raises(NotInSigma):
            sigma_coords(q)
        assert in_fundamental_domain(q) is False


def test_stab_sigma_structure():
    elems = stab_sigma()
    assert len(elems) == 6
    assert Mat.identity(2) in [x.map(int) for x in elems] or imat(1, 0, 0, 1) in elems
    # the coordinate-swapping element appears (up to overall sign)
    assert imat(1, 0, 1, -1) in elems or imat(-1, 0, -1, 1) in elems
    for x in elems:
        assert abs(x.det()) == 1


@given(reduced_forms())
def test_stab_preserves_sigma_coords_multiset(q):
    base = sorted(sigma_coords(q))
    for x in stab_sigma():
        q2 = congruence_act(x, q)
        assert in_sigma(q2)
        assert sorted(sigma_coords(q2)) == base


def test_stab_closed_under_product_up_to_sign():
    elems = stab_sigma()
    keys = {max(x.rows, (-x).rows) for x in elems}
    for x in elems:
        for y in elems:
            z = x @ y
            assert max(z.rows, (-z).rows) in keys


@given(pd_forms())
def test_selling_reduce_properties(q):
    if q[0, 1] > 0:
        q = congruence_act(SFLIP, q)
    qred, word = selling_reduce(q)
    assert in_sigma(qred)
    assert qred.det() == q.det()
    assert congruence_act(word.matrix(), q) == qred
    # idempotence: a reduced form reduces with the empty word
    again, word2 = selling_reduce(qred)
    assert again == qred and word2.moves == ()


def _unit_step_reduce(q):
    """Reference: the unit-step Mat loop, one congruence per move."""
    moves = []
    while True:
        p = selling_params(q)
        if p.p13 > 0:
            q, move = congruence_act(T2, q), "T2"
        elif p.p23 > 0:
            q, move = congruence_act(T1, q), "T1"
        else:
            return q, tuple(moves)
        moves.append(move)


@given(pd_forms())
def test_selling_reduce_matches_unit_step_reference(q):
    if q[0, 1] > 0:
        q = congruence_act(SFLIP, q)
    qref, moves = _unit_step_reduce(q)
    qred, word = selling_reduce(q)
    assert qred == qref
    assert word.moves == moves
    assert word.counts() == tuple(len(list(g)) for _, g in groupby(reversed(moves)))
    x = Mat.identity(2)
    for move in moves:
        x = x @ (T1 if move == "T1" else T2)
    assert word.matrix() == x
    # the cap counts one iteration per move plus one to stop
    with pytest.raises(IterationCapExceeded):
        selling_reduce(q, cap=len(moves))
    assert selling_reduce(q, cap=len(moves) + 1) == (qred, word)


def oracle_fd_representative(q):
    """fd_representative by trying each stabilizer element's congruence action in turn."""
    l1, l2, l3 = sigma_coords(q)
    if l3 <= l1 <= l2:
        return q, Mat.identity(2)
    for x in stab_sigma():
        q2 = congruence_act(x, q)
        l1, l2, l3 = sigma_coords(q2)
        if l3 <= l1 <= l2:
            return q2, x
    raise AssertionError("no stabilizer element sorts the sigma coordinates")


@st.composite
def forms_with_ties(draw):
    """Forms in sigma whose coordinates come from {0, 1, 2}, at most one of them 0."""
    l1, l2, l3 = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=3, max_size=3)
                      .filter(lambda c: c.count(0) <= 1))
    return Mat(((l1 + l3, -l3), (-l3, l2 + l3)))


@given(st.one_of(reduced_forms(), forms_with_ties()))
def test_fd_representative_picks_the_oracles_element(q):
    assert fd_representative(q) == oracle_fd_representative(q)


def test_fd_representative_acts_once(monkeypatch):
    import splitjac.selling as selling

    calls = []
    act = selling.congruence_act
    monkeypatch.setattr(selling, "congruence_act", lambda x, q: calls.append(x) or act(x, q))
    for coords in ((1, 2, 3), (3, 2, 1), (2, 1, 1), (1, 1, 1), (0, 2, 1)):
        l1, l2, l3 = coords
        q = Mat(((l1 + l3, -l3), (-l3, l2 + l3)))
        calls.clear()
        qtilde, stab = fd_representative(q)
        assert calls == ([] if stab == Mat.identity(2) else [stab])
        assert sorted(sigma_coords(qtilde)) == sorted(coords)


def test_fd_representative_certifies_the_chosen_element(monkeypatch):
    import splitjac.selling as selling

    q = Mat(((4, -1), (-1, 3)))  # coordinates (3, 2, 1)
    # a wrong table: the identity claims to reorder the coordinates to (2, 3, 1)
    monkeypatch.setattr(selling, "_stabilizer", lambda: ((Mat.identity(2), (1, 0, 2)),))
    with pytest.raises(InternalInconsistency, match="does not sort"):
        fd_representative(q)


@given(reduced_forms())
def test_fd_representative_properties(q):
    qtilde, stab = fd_representative(q)
    assert in_fundamental_domain(qtilde)
    assert congruence_act(stab, q) == qtilde
    assert sorted(sigma_coords(qtilde)) == sorted(sigma_coords(q))
    l1, l2, l3 = sigma_coords(q)
    if len({l1, l2, l3}) == 3:
        # with distinct coordinates exactly one stabilizer element works
        hits = [x for x in stab_sigma()
                if in_fundamental_domain(congruence_act(x, q))]
        assert len(hits) == 1


def test_classify_curve_goldens():
    assert classify_curve(qmat(2, -1, -1, 2)) == ThetaCurve(1, 1, 1)
    assert classify_curve(qmat(1, 0, 0, 2)) == DumbbellFamily(1, 2)
    # vanishing l2 (q22 = -q12): remap by [[-1,0],[-1,1]] to diag(2, 1)
    assert classify_curve(qmat(3, -1, -1, 1)) == DumbbellFamily(2, 1)
    # vanishing l1 (q11 = -q12): remap by [[1,-1],[0,-1]] to diag(1, 2)
    assert classify_curve(qmat(1, -1, -1, 3)) == DumbbellFamily(1, 2)


@given(reduced_forms())
def test_classify_curve_matches_coords(q):
    l1, l2, l3 = sigma_coords(q)
    curve = classify_curve(q)
    if 0 in (l1, l2, l3):
        assert isinstance(curve, DumbbellFamily)
        assert sorted((curve.lc1, curve.lc2)) == sorted(x for x in (l1, l2, l3) if x != 0)
        assert curve.lc1 * curve.lc2 == q.det()
    else:
        assert curve == ThetaCurve(l1, l2, l3)
