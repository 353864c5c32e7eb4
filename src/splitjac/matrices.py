"""Exact small-matrix algebra over the rationals.

Everything in this package is 1x1, 1x2, 2x1 or 2x2 and exact: entries are ints,
fractions.Fraction, or any object supporting ring arithmetic (the fan module
feeds in symbolic linear forms).  No floats: `rat` and `Mat(rows)` reject them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InternalInconsistency, SingularMatrix, UnsupportedRank, ValidationError


def rat(x) -> Fraction:
    """Coerce an int, a 'p/q' string or a Fraction to Fraction; a float raises ValidationError."""
    if isinstance(x, float):
        raise ValidationError(f"expected an exact number, got the float {x!r}")
    return Fraction(x)


def rat_str(x) -> str:
    """Serialize a rational exactly: '3', '-5/9'."""
    f = rat(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction; a zero denominator is a ValueError."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc


@dataclass(frozen=True)
class Mat:
    """Immutable matrix as a tuple of row tuples.

    `Mat(rows)` checks its rows and raises ValidationError on a float entry (it
    does not coerce: entries may be symbolic).  `@`, `.T`, `map`, `imat` and
    `qmat` build results by `_mat`, skipping that check on a known-good shape.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        if any(isinstance(x, float) for r in rows for x in r):
            raise ValidationError(f"matrix entries must be exact, got {rows!r}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def of(cls, rows) -> "Mat":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "Mat") -> "Mat":
        a, b = self.rows, other.rows
        n = len(b)
        if len(a[0]) != n:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = tuple(zip(*b))
        # Each entry is a0*b0, then acc + a1*b1, ...: symbolic entries see the same calls.
        if n == 2:
            return _mat(tuple(tuple(r0 * c0 + r1 * c1 for c0, c1 in cols) for r0, r1 in a))
        return _mat(tuple(tuple(_dot(r, c) for c in cols) for r in a))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat(tuple(tuple(a + b for a, b in zip(ra, rb))
                         for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return self.map(lambda x: -x)

    def scale(self, c) -> "Mat":
        return self.map(lambda x: c * x)

    def map(self, fn) -> "Mat":
        return _mat(tuple(tuple(map(fn, r)) for r in self.rows))

    @property
    def T(self) -> "Mat":
        return _mat(tuple(zip(*self.rows)))

    def det(self):
        if self.shape == (1, 1):
            return self.rows[0][0]
        if self.shape == (2, 2):
            return self.rows[0][0] * self.rows[1][1] - self.rows[0][1] * self.rows[1][0]
        raise UnsupportedRank(f"det undefined for shape {self.shape}")

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        acc = self.rows[0][0]
        for i in range(1, self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def is_integral(self) -> bool:
        return all(_denominator(x) == 1 for r in self.rows for x in r)

    def to_int(self) -> "Mat":
        if not self.is_integral():
            raise ValueError("matrix is not integral")
        return self.map(_to_int)

    def to_strs(self) -> list:
        """Row-major nested list of exact rational strings (for JSON)."""
        return [[rat_str(x) for x in r] for r in self.rows]


def _mat(rows: tuple) -> Mat:
    """A Mat from a nonempty tuple of equal-length row tuples, not re-validated."""
    m = object.__new__(Mat)
    object.__setattr__(m, "rows", rows)
    return m


def _dot(r, c):
    acc = r[0] * c[0]
    for t in range(1, len(r)):
        acc = acc + r[t] * c[t]
    return acc


def _denominator(x) -> int:
    if isinstance(x, int):
        return 1
    if isinstance(x, Fraction):
        return x.denominator
    return rat(x).denominator


def _to_int(x) -> int:
    """The int value of an integral entry."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator
    return int(rat(x))


def imat(a, b, c, d) -> Mat:
    """2x2 integer matrix [[a,b],[c,d]]; a float or non-integral entry raises ValidationError."""
    m = _mat(((a, b), (c, d)))
    if type(a) is type(b) is type(c) is type(d) is int:
        return m
    if not m.is_integral():
        raise ValidationError(f"imat requires integer entries, got {m.rows}")
    return m.map(_to_int)


# Sign flip of the second basis vector: turns q12 into -q12.
SFLIP = imat(1, 0, 0, -1)


def qmat(a, b, c, d) -> Mat:
    """2x2 rational matrix [[a,b],[c,d]]."""
    return _mat(((rat(a), rat(b)), (rat(c), rat(d))))


def col2(a, b) -> Mat:
    return Mat(((a,), (b,)))


def row2(a, b) -> Mat:
    return Mat(((a, b),))


def inv2(a: Mat) -> Mat:
    """Exact inverse of a 1x1 or 2x2 rational matrix."""
    if a.shape == (1, 1):
        x = rat(a[0, 0])
        if x == 0:
            raise SingularMatrix("1x1 matrix is zero")
        return Mat(((1 / x,),))
    if a.shape != (2, 2):
        raise UnsupportedRank(f"inverse undefined for shape {a.shape}")
    d = rat(a.det())
    if d == 0:
        raise SingularMatrix(f"determinant zero: {a.rows}")
    return qmat(a[1, 1] / d, -a[0, 1] / d, -a[1, 0] / d, a[0, 0] / d)


def congruence_act(x: Mat, q: Mat) -> Mat:
    """Congruence action x . q = x^T q x (entries may be symbolic)."""
    return x.T @ q @ x


def is_positive_definite(q: Mat) -> bool:
    """Sylvester test for a symmetric 1x1 or 2x2 rational form."""
    if not q.is_symmetric():
        return False
    if q.shape == (1, 1):
        return q[0, 0] > 0
    if q.shape == (2, 2):
        return q[0, 0] > 0 and q.det() > 0
    raise UnsupportedRank(f"definiteness undefined for shape {q.shape}")


def egcd(a: int, b: int) -> tuple:
    """Extended gcd: returns (g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@dataclass(frozen=True)
class Snf2:
    """Smith normal form u @ a @ v = d with u, v unimodular, d = diag(g1, g2), g1 | g2."""

    u: Mat
    d: Mat
    v: Mat

    @property
    def invariant_factors(self) -> tuple:
        return (self.d[0, 0], self.d[1, 1])


def snf2(a: Mat) -> Snf2:
    """Smith normal form of an integer 2x2 matrix."""
    if a.shape != (2, 2):
        raise UnsupportedRank(f"snf2 requires 2x2, got {a.shape}")
    if not a.is_integral():
        raise ValueError("snf2 requires integer entries")
    a_int = a.map(_to_int)
    m = [list(r) for r in a_int.rows]
    u = [[1, 0], [0, 1]]
    v = [[1, 0], [0, 1]]

    def lmul(l):  # m <- l @ m, u <- l @ u
        for tgt in (m, u):
            r0 = [l[0][0] * tgt[0][j] + l[0][1] * tgt[1][j] for j in range(2)]
            r1 = [l[1][0] * tgt[0][j] + l[1][1] * tgt[1][j] for j in range(2)]
            tgt[0], tgt[1] = r0, r1

    def rmul(r):  # m <- m @ r, v <- v @ r
        for tgt in (m, v):
            c0 = [tgt[i][0] * r[0][0] + tgt[i][1] * r[1][0] for i in range(2)]
            c1 = [tgt[i][0] * r[0][1] + tgt[i][1] * r[1][1] for i in range(2)]
            for i in range(2):
                tgt[i][0], tgt[i][1] = c0[i], c1[i]

    for _ in range(4096):  # each pass divides the corner entry; terminates fast
        if m[0][0] == 0:
            if m[1][0] != 0 or m[1][1] != 0:
                lmul([[0, 1], [1, 0]])
            elif m[0][1] != 0:
                rmul([[0, 1], [1, 0]])
        if m[1][0] != 0:
            corner, entry = m[0][0], m[1][0]
            if corner != 0 and entry % corner == 0:
                lmul([[1, 0], [-(entry // corner), 1]])  # shear keeps row 0 intact
            else:
                g, x, y = egcd(corner, entry)
                lmul([[x, y], [-(entry // g), corner // g]])
        if m[0][1] != 0:
            corner, entry = m[0][0], m[0][1]
            if corner != 0 and entry % corner == 0:
                rmul([[1, -(entry // corner)], [0, 1]])  # shear keeps column 0 intact
            else:
                g, x, y = egcd(corner, entry)
                rmul([[x, -(entry // g)], [y, corner // g]])
        if m[1][0] == 0 and m[0][1] == 0:
            if m[0][0] != 0 and m[1][1] % m[0][0] != 0:
                rmul([[1, 0], [1, 1]])  # reintroduce coupling to fix divisibility
                continue
            break
    else:
        raise InternalInconsistency(f"snf2 elimination failed to converge on {a.rows}")
    if m[0][0] == 0 and m[1][1] != 0:
        lmul([[0, 1], [1, 0]])
        rmul([[0, 1], [1, 0]])
    if m[0][0] < 0:
        lmul([[-1, 0], [0, 1]])
    if m[1][1] < 0:
        lmul([[1, 0], [0, -1]])

    um, dm, vm = Mat.of(u), Mat.of(m), Mat.of(v)
    g1, g2 = dm[0, 0], dm[1, 1]
    g_all = gcd(gcd(a_int[0, 0], a_int[0, 1]), gcd(a_int[1, 0], a_int[1, 1]))
    checks = (
        ("diagonal", dm[0, 1] == 0 and dm[1, 0] == 0),
        ("nonnegative", g1 >= 0 and g2 >= 0),
        ("divisibility", g2 == 0 if g1 == 0 else g2 % g1 == 0),
        ("unimodular", abs(um.det()) == 1 and abs(vm.det()) == 1),
        ("u @ a @ v == d", um @ a_int @ vm == dm),
        ("determinant", g1 * g2 == abs(a_int.det())),
        ("gcd of entries", g1 == g_all),
    )
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise InternalInconsistency(f"snf2 certificate failed ({', '.join(failed)}) for {a.rows}")
    return Snf2(u=um, d=dm, v=vm)
