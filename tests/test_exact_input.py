"""Exact input only: `rat` and the public `Mat(rows)` constructor reject floats.

Every public entry point that takes a number or a matrix reaches one of the
two gates, so a float raises ValidationError wherever it enters, while int,
Fraction and 'p/q' string input keeps its exact value.  A value that is not
a number at all raises ValidationError from `rat` too.
"""

from decimal import Decimal
from fractions import Fraction as F

import pytest

from splitjac.errors import ValidationError
from splitjac.locus import LinForm
from splitjac.matrices import Mat, imat, inv2, parse_rat, qmat, rat, rat_str, snf2
from splitjac.selling import (
    DumbbellFamily,
    ThetaCurve,
    classify_curve,
    fd_representative,
    selling_reduce,
)
from splitjac.splitting import SplittingData
from splitjac.tav import (
    Tav,
    TavMorphism,
    adjoint,
    check_polarization,
    circle,
    identity_morphism,
    induce_polarization,
    polarization_type,
)

EYE = Mat.identity(2)
_T = Tav(imat(2, 1, 1, 2), EYE)

FLOAT_INPUTS = {
    "rat": lambda: rat(0.5),
    "qmat": lambda: qmat(1, 0.5, 0, 1),
    "rat_str": lambda: rat_str(0.5),
    "Mat": lambda: Mat(((2.0, 0), (0, 1))),
    "LinForm": lambda: LinForm(0.1, 0),
    "LinForm * float": lambda: LinForm(1, 0) * 0.5,
    "ThetaCurve": lambda: ThetaCurve(1, 2, 0.5),
    "DumbbellFamily": lambda: DumbbellFamily(1.5, 2),
    "SplittingData": lambda: SplittingData(18, 7, 3.0, 1),
    "circle": lambda: circle(1.5),
    "Tav": lambda: Tav(Mat(((0.5,),))),
    "selling_reduce": lambda: selling_reduce(Mat(((2.0, -1), (-1, 2)))),
    "classify_curve": lambda: classify_curve(Mat(((2.0, -1), (-1, 2)))),
    "is_integral on map": lambda: Mat.identity(2).map(float).is_integral(),
    "to_int on map": lambda: Mat.identity(2).map(float).to_int(),
    "snf2 on map": lambda: snf2(imat(2, 0, 0, 2).map(float)),
    "check_polarization z": lambda: check_polarization(EYE.map(float), imat(2, 1, 1, 2)),
    "check_polarization pairing": lambda: check_polarization(EYE, imat(2, 1, 1, 2).map(float)),
    "TavMorphism": lambda: TavMorphism(_T, _T, EYE.map(float), EYE),
    "induce_polarization": lambda: induce_polarization(identity_morphism(_T), EYE.map(float)),
    "adjoint z1": lambda: adjoint(identity_morphism(_T), EYE.map(float), EYE),
    "adjoint z2": lambda: adjoint(identity_morphism(_T), EYE, EYE.map(float)),
    "polarization_type": lambda: polarization_type(EYE.map(float)),
    "polarization_type 1x1": lambda: polarization_type(Mat(((3,),)).map(float)),
}


@pytest.mark.parametrize("call", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS.keys())
def test_float_input_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


NOT_A_NUMBER = {"None": None, "complex": 1j, "word": "abc", "NaN": Decimal("NaN"),
                "infinity": Decimal("Infinity"), "zero denominator": "1/0", "list": [1]}


@pytest.mark.parametrize("value", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
def test_a_value_that_is_not_a_number_raises_validation_error(value):
    calls = (rat, rat_str, circle, lambda v: SplittingData(18, 7, v, 1), lambda v: LinForm(v, 0),
             lambda v: ThetaCurve(1, 1, v), lambda v: Mat(((v,),)).is_integral())
    for call in calls:
        with pytest.raises(ValidationError, match="exact number") as exc:
            call(value)
        assert repr(value) in str(exc.value)


def test_parse_rat_keeps_its_value_error_for_argparse():
    for text in ("1/0", "abc"):
        with pytest.raises(ValueError):
            parse_rat(text)


def _reduced_curve(q):
    qred, _ = selling_reduce(q)
    return classify_curve(fd_representative(qred)[0])


EXACT_INPUTS = {
    "rat int": (lambda: rat(3), F(3)),
    "rat Fraction": (lambda: rat(F(1, 2)), F(1, 2)),
    "rat string": (lambda: rat("-10/18"), F(-5, 9)),
    "qmat": (lambda: qmat(1, F(1, 2), "6/8", -2).rows, ((1, F(1, 2)), (F(3, 4), -2))),
    "rat_str int": (lambda: rat_str(3), "3"),
    "rat_str Fraction": (lambda: rat_str(F(-5, 9)), "-5/9"),
    "rat_str string": (lambda: rat_str("6/4"), "3/2"),
    "Mat": (lambda: Mat(((1, F(1, 2)), (0, 1))).rows, ((1, F(1, 2)), (0, 1))),
    "LinForm": (lambda: LinForm(1, "1/2"), LinForm(F(1), F(1, 2))),
    "LinForm * int": (lambda: LinForm(1, F(1, 3)) * 3, LinForm(3, 1)),
    "LinForm * Fraction": (lambda: LinForm(1, 0) * F(1, 2), LinForm(F(1, 2), 0)),
    "ThetaCurve": (lambda: ThetaCurve(1, "1/2", F(1, 3)), ThetaCurve(F(1), F(1, 2), F(1, 3))),
    "DumbbellFamily": (lambda: DumbbellFamily("1/2", 3), DumbbellFamily(F(1, 2), F(3))),
    "SplittingData": (lambda: SplittingData(18, 7, "3", F(1)), SplittingData(18, 7, F(3), F(1))),
    "circle": (lambda: circle("1/2").pairing.rows, ((F(1, 2),),)),
    "Tav": (lambda: Tav(Mat(((1, 0), (0, F(1, 2)))), Mat.identity(2)).gram,
            Mat(((1, 0), (0, F(1, 2))))),
    "selling_reduce int": (lambda: _reduced_curve(Mat(((2, -1), (-1, 2)))), ThetaCurve(1, 1, 1)),
    "selling_reduce Fraction": (lambda: _reduced_curve(Mat(((54, -21), (-21, F(74, 9))))),
                                ThetaCurve(F(11, 9), F(5, 3), F(1, 3))),
    "classify_curve": (lambda: classify_curve(Mat(((3, 0), (0, F(5, 2))))),
                       DumbbellFamily(3, F(5, 2))),
    "is_integral": (lambda: (imat(1, 2, 3, 4).map(F).is_integral(),
                             qmat(1, "1/2", 0, 1).is_integral()), (True, False)),
}


@pytest.mark.parametrize("call, expected", EXACT_INPUTS.values(), ids=EXACT_INPUTS.keys())
def test_exact_input_keeps_its_value(call, expected):
    assert call() == expected


@pytest.mark.parametrize("m", [imat(2, 1, 1, 1), imat(1, -7, 0, 18), Mat(((3,),))])
def test_inv2_of_an_int_matrix_has_fraction_entries(m):
    inv = inv2(m)
    assert all(type(x) is F for row in inv.rows for x in row)
    assert m @ inv == Mat.identity(m.nrows)


def test_imat_takes_integers_only():
    m = imat(F(4, 2), 0, -3, F(1))
    assert m.rows == ((2, 0), (-3, 1))
    assert all(type(x) is int for row in m.rows for x in row)
    for bad in (F(1, 2), 2.7, 2.0):
        with pytest.raises(ValidationError):
            imat(bad, 0, 0, 1)
