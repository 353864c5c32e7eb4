"""Exact matrix kernel: inverses, congruence action, Smith normal form."""

import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import splitjac.matrices as matrices
from conftest import integer_mats, pd_forms, rationals, unimodular2
from splitjac.errors import InternalInconsistency, SingularMatrix, UnsupportedRank, ValidationError
from splitjac.locus import LinForm
from splitjac.matrices import (
    Mat,
    adjugate,
    congruence_act,
    imat,
    inv2,
    is_positive_definite,
    parse_rat,
    qmat,
    rat_str,
    scaled,
    snf2,
)


def test_rat_str_roundtrip():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-5, 9)) == "-5/9"
    assert parse_rat("74/9") == Fraction(74, 9)
    assert parse_rat("-21") == -21


def test_mat_basic_ops():
    a = imat(1, 2, 3, 4)
    b = imat(0, 1, 1, 0)
    assert (a @ b).rows == ((2, 1), (4, 3))
    assert (a + b).rows == ((1, 3), (4, 4))
    assert (a - a).rows == ((0, 0), (0, 0))
    assert a.T.rows == ((1, 3), (2, 4))
    assert a.det() == -2
    assert a.trace() == 5
    assert not a.is_symmetric()
    assert qmat("1/2", 0, 0, 1).is_symmetric()


def test_mat_rejects_ragged():
    with pytest.raises(ValidationError):
        Mat(((1, 2), (3,)))


@pytest.mark.parametrize("rows", [(), ((),), ((), ()), ((1, 2), (3,)), ((1,), (2, 3)), [[1], []]])
def test_mat_and_mat_of_reject_empty_and_ragged_rows(rows):
    with pytest.raises(ValidationError):
        Mat(rows)
    with pytest.raises(ValidationError):
        Mat(iter(map(iter, rows)))


def test_mat_normalizes_its_rows_to_tuples():
    assert Mat([[1, 2], [3, 4]]).rows == ((1, 2), (3, 4))
    assert Mat(iter([iter([1]), iter([2])])).rows == ((1,), (2,))


# The generic implementations the fast paths replaced, kept as oracles.
def oracle_matmul(x: Mat, y: Mat) -> Mat:
    if x.ncols != y.nrows:
        raise ValueError(f"shape mismatch {x.shape} @ {y.shape}")
    out = []
    for i in range(x.nrows):
        row = []
        for j in range(y.ncols):
            acc = x.rows[i][0] * y.rows[0][j]
            for t in range(1, x.ncols):
                acc = acc + x.rows[i][t] * y.rows[t][j]
            row.append(acc)
        out.append(tuple(row))
    return Mat(tuple(out))


def oracle_transpose(x: Mat) -> Mat:
    return Mat(tuple(tuple(x.rows[i][j] for i in range(x.nrows)) for j in range(x.ncols)))


def oracle_is_integral(x: Mat) -> bool:
    return all(Fraction(v).denominator == 1 for r in x.rows for v in r)


class Sym:
    """Symbolic entry that logs every ring operation made on it, in call order."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def _op(self, op, lhs, rhs):
        self.log.append((op, lhs, rhs))
        return Sym(f"({lhs}{op}{rhs})", self.log)

    def __mul__(self, c):
        return self._op("*", self.name, getattr(c, "name", repr(c)))

    def __rmul__(self, c):
        return self._op("*", repr(c), self.name)

    def __add__(self, c):
        return self._op("+", self.name, getattr(c, "name", repr(c)))

    def __eq__(self, other):
        return isinstance(other, Sym) and self.name == other.name


def _mat_of(draw, shape, entry):
    return Mat(tuple(tuple(draw(entry) for _ in range(shape[1])) for _ in range(shape[0])))


_ints = st.integers(min_value=-20, max_value=20)
_scalars = st.one_of(_ints, rationals(max_den=6))
_linforms = st.builds(LinForm, rationals(max_den=4), rationals(max_den=4))
# Shapes m x n @ n x p cover 1x1, 1x2, 2x1, 2x2 and 2x2 @ 2x3, and inner dimension 3.
_shapes = st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, 2, 3)), st.sampled_from((1, 2, 3)))


@st.composite
def _product_operands(draw):
    m, n, p = draw(_shapes)
    kind = draw(st.sampled_from(("int", "fraction", "linform")))
    entry = {"int": _ints, "fraction": _scalars, "linform": _linforms}[kind]
    # LinForm times LinForm is undefined, so symbolic entries go on one side only.
    left_symbolic = draw(st.booleans())
    x = _mat_of(draw, (m, n), entry if left_symbolic else _scalars)
    y = _mat_of(draw, (n, p), _scalars if left_symbolic else entry)
    return x, y


def _well_formed(x: Mat) -> bool:
    rows = x.rows
    return (type(rows) is tuple and len(rows) > 0 and all(type(r) is tuple for r in rows)
            and len({len(r) for r in rows}) == 1 and len(rows[0]) > 0)


@given(_product_operands())
def test_matmul_and_transpose_match_the_generic_oracles(xy):
    x, y = xy
    for got, want in ((x @ y, oracle_matmul(x, y)), (x.T, oracle_transpose(x)),
                      (y.T, oracle_transpose(y)),
                      (x.map(lambda v: -v), Mat(tuple(tuple(-v for v in r) for r in x.rows)))):
        assert got == want
        assert got.shape == want.shape
        assert _well_formed(got)


@pytest.mark.parametrize("shapes", [((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2)),
                                    ((2, 2), (2, 2)), ((2, 2), (2, 3)), ((2, 3), (3, 2))])
def test_matmul_makes_the_oracles_calls_in_the_oracles_order(shapes):
    (m, n), (_, p) = shapes
    logs = ([], [])
    results = []
    for log, product in zip(logs, (Mat.__matmul__, oracle_matmul)):
        x = Mat(tuple(tuple(Sym(f"x{i}{t}", log) for t in range(n)) for i in range(m)))
        y = Mat(tuple(tuple(Sym(f"y{t}{j}", log) for j in range(p)) for t in range(n)))
        results.append(product(x, y))
    assert results[0] == results[1]
    assert logs[0] == logs[1]


@pytest.mark.parametrize("y", [Mat(((1, 2, 3),)), Mat(((1,), (2,), (3,))), Mat(((1,),))])
def test_matmul_rejects_mismatched_shapes(y):
    with pytest.raises(ValidationError, match="shape mismatch"):
        imat(1, 2, 3, 4) @ y


def test_add_and_trace_reject_mismatched_shapes():
    with pytest.raises(ValidationError, match="shape mismatch"):
        imat(1, 2, 3, 4) + Mat(((1, 2),))
    with pytest.raises(ValidationError, match="non-square"):
        Mat(((1, 2),)).trace()


@given(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, 2, 3))).flatmap(
    lambda shape: st.lists(st.lists(st.one_of(_ints, rationals(max_den=3), st.booleans()),
                                    min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])))
def test_is_integral_and_to_int_match_the_oracle(rows):
    x = Mat(rows)
    assert x.is_integral() == oracle_is_integral(x)
    if x.is_integral():
        as_int = x.to_int()
        assert as_int.rows == x.map(lambda v: int(Fraction(v))).rows
        assert all(type(v) is int for r in as_int.rows for v in r)
        assert _well_formed(as_int)
    else:
        with pytest.raises(ValidationError):
            x.to_int()


def test_is_integral_coerces_other_entries_as_before():
    assert Mat((("3", "4/2"),)).is_integral()
    assert not Mat((("1/2",),)).is_integral()
    assert Mat((("6/3",),)).to_int().rows == ((2,),)
    with pytest.raises(ValidationError, match="exact number"):
        Mat(((LinForm(1, 0),),)).is_integral()


def test_inv2_golden():
    a = qmat(2, 1, 1, 1)
    assert inv2(a) == qmat(1, -1, -1, 2)
    assert inv2(Mat(((Fraction(4),),))) == Mat(((Fraction(1, 4),),))


def test_inv2_singular():
    with pytest.raises(SingularMatrix):
        inv2(imat(1, 2, 2, 4))
    with pytest.raises(SingularMatrix):
        inv2(Mat(((0,),)))
    with pytest.raises(UnsupportedRank):
        inv2(Mat(((1, 2),)))


def test_congruence_golden():
    # reducing [[54,-21],[-21,74/9]] by [[1,0],[1,1]] twice then [[1,1],[0,1]]
    q = qmat(54, -21, -21, Fraction(74, 9))
    t1 = imat(1, 0, 1, 1)
    t2 = imat(1, 1, 0, 1)
    step = congruence_act(t2, congruence_act(t1, congruence_act(t1, q)))
    assert step == qmat(Fraction(26, 9), Fraction(-5, 3), Fraction(-5, 3), 2)


@given(pd_forms())
def test_positive_definite_invariant_under_congruence(q):
    assert is_positive_definite(q)
    assert q.det() > 0


@given(unimodular2(), pd_forms())
def test_congruence_preserves_det_up_to_square(x, q):
    assert congruence_act(x, q).det() == x.det() ** 2 * q.det()
    assert abs(x.det()) == 1


@given(unimodular2(), unimodular2(), pd_forms())
def test_congruence_composition_law(x, y, q):
    # acting by x then y equals acting by x @ y in one step
    assert congruence_act(y, congruence_act(x, q)) == congruence_act(x @ y, q)


@given(unimodular2())
def test_inv2_is_inverse(x):
    assert x @ inv2(x) == Mat.identity(2).map(Fraction)
    assert inv2(x) @ x == Mat.identity(2).map(Fraction)


@given(st.one_of(integer_mats(), integer_mats(1, 1)))
def test_adjugate_times_matrix_is_the_determinant(a):
    assert a @ adjugate(a) == Mat.identity(a.nrows).scale(a.det())


@given(st.sampled_from((1, 2)).flatmap(
    lambda n: st.lists(st.lists(rationals(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_scaled_clears_the_denominators_with_their_lcm(rows):
    a = Mat(rows)
    ints, den = scaled(a)
    assert all(type(x) is int for r in ints.rows for x in r)
    assert ints == a.scale(den)
    # den is the least such scale: no prime (the denominators are at most 12) can be divided out
    assert all(not a.scale(Fraction(den, p)).is_integral() for p in (2, 3, 5, 7, 11)
               if den % p == 0)


def test_snf2_goldens():
    assert snf2(imat(1, -7, 0, 18)).invariant_factors == (1, 18)
    assert snf2(imat(2, 0, 0, 2)).invariant_factors == (2, 2)
    assert snf2(imat(2, 1, 0, 1)).invariant_factors == (1, 2)
    assert snf2(imat(0, 0, 0, 0)).invariant_factors == (0, 0)
    assert snf2(imat(6, 4, 4, 8)).invariant_factors == (2, 16)


def test_snf2_rejects_non_integer():
    with pytest.raises(ValidationError):
        snf2(qmat("1/2", 0, 0, 1))


_egcd = matrices.egcd


def _off_by_one_egcd(a, b):
    g, x, y = _egcd(a, b)
    return g, x + 1, y


@pytest.mark.parametrize("a", [imat(2, 1, 0, 1), imat(6, 4, 4, 8), imat(3, 5, 0, 0)])
def test_snf2_certificate_catches_a_wrong_elimination_step(monkeypatch, a):
    # a wrong Bezout pair makes a non-unimodular step; the certificate must say so
    monkeypatch.setattr(matrices, "egcd", _off_by_one_egcd)
    with pytest.raises(InternalInconsistency, match="unimodular"):
        snf2(a)


def test_snf2_reports_non_convergence(monkeypatch):
    # on corner 3, entry 2 this makes the identity step, which never clears the entry
    monkeypatch.setattr(matrices, "egcd", lambda a, b: (max(abs(a), abs(b)), 1, 0))
    with pytest.raises(InternalInconsistency, match="converge"):
        snf2(imat(3, 0, 2, 1))


def test_snf2_certificate_survives_optimized_mode():
    # python -O strips assert statements; the certificate must not be one
    src = Path(matrices.__file__).resolve().parents[1]
    code = (
        "import splitjac.matrices as m\n"
        "from splitjac.errors import InternalInconsistency\n"
        "good = m.egcd\n"
        "m.egcd = lambda a, b: (lambda g, x, y: (g, x + 1, y))(*good(a, b))\n"
        "try:\n"
        "    m.snf2(m.imat(2, 1, 0, 1))\n"
        "except InternalInconsistency:\n"
        "    print('caught')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, timeout=60, check=True)
    assert out.stdout == "caught\n"


@given(integer_mats())
def test_snf2_properties(a):
    res = snf2(a)
    g1, g2 = res.invariant_factors
    assert res.u @ a @ res.v == res.d
    assert abs(res.u.det()) == 1
    assert abs(res.v.det()) == 1
    assert g1 >= 0 and g2 >= 0
    if g1 != 0:
        assert g2 % g1 == 0
    assert g1 * g2 == abs(a.det())
    entries_gcd = gcd(gcd(abs(a[0, 0]), abs(a[0, 1])), gcd(abs(a[1, 0]), abs(a[1, 1])))
    assert g1 == entries_gcd


@given(integer_mats(lo=-4, hi=4), unimodular2(), unimodular2())
def test_snf2_invariant_under_unimodular(a, x, y):
    # invariant factors do not change under left/right unimodular action
    assert snf2(x @ a @ y).invariant_factors == snf2(a).invariant_factors


@given(rationals(nonzero=True), rationals(), rationals(), rationals(nonzero=True))
def test_det_multiplicative(a, b, c, d):
    m = qmat(a, b, c, d)
    n = qmat(d, c, b, a)
    assert (m @ n).det() == m.det() * n.det()
