"""The contract of the package's immutable value classes: dataclass-style
repr, equality within one class, hash of the compared fields, no assignment
or deletion, construction by position, keyword or default, and pickling."""

import pickle
from fractions import Fraction

import pytest

from algspec.cli import CliConfig
from algspec.fouriercontrast import ContrastReport, DftResult
from algspec.instfreq import PhiTrace, SampledSignal, VilleComparison
from algspec.opcalc import ExpPoly, dirac_image
from algspec.pipeline import SpectrumAnalysis
from algspec.ratfield import (CPoly, Pole, Qi, RatFunc, SingularitySource,
                              Spectrum)
from algspec.sigexpr import (Add, Chirp, Const, Cos, Delay, Dirac, Exp, Mul,
                             Pow, RaisedCos, SignalClass, Sin, Sinc, TFrac,
                             TimeVar)
from algspec.weylode import OdeSystem, SingularPoint, WeylOp

_SRC = SingularitySource(-2j, "pole", 1)
_SPEC = Spectrum((-2.0, 2.0), (_SRC, SingularitySource(2j, "pole", 1)))
_SPEC_TEXT = ("Spectrum(frequencies=(-2.0, 2.0), sources=(SingularitySource("
              "location=(-0-2j), kind='pole', order=1), SingularitySource("
              "location=2j, kind='pole', order=1)), "
              "infinite_singularity=False)")

# (value, its repr as a frozen dataclass printed it, its compared fields)
SAMPLES = [
    (Const(Qi(Fraction(1, 2), -3)),
     "Const(value=Qi(Fraction(1, 2), Fraction(-3, 1)))", ("value",)),
    (TimeVar(), "TimeVar()", ()),
    (Add((Const(Qi(1)), TimeVar())),
     "Add(terms=(Const(value=Qi(Fraction(1, 1), Fraction(0, 1))), "
     "TimeVar()))", ("terms",)),
    (Mul((Const(Qi(2)), TimeVar())),
     "Mul(factors=(Const(value=Qi(Fraction(2, 1), Fraction(0, 1))), "
     "TimeVar()))", ("factors",)),
    (Pow(TimeVar(), 3), "Pow(base=TimeVar(), k=3)", ("base", "k")),
    (Exp(Qi(-1, 2)), "Exp(rate=Qi(Fraction(-1, 1), Fraction(2, 1)))",
     ("rate",)),
    (Sin(3), "Sin(omega=Fraction(3, 1), phase=Fraction(0, 1))",
     ("omega", "phase")),
    (Cos(Fraction(1, 2), Fraction(1, 3)),
     "Cos(omega=Fraction(1, 2), phase=Fraction(1, 3))", ("omega", "phase")),
    (Sinc(2), "Sinc(omega=Fraction(2, 1))", ("omega",)),
    (RaisedCos(2), "RaisedCos(omega=Fraction(2, 1))", ("omega",)),
    (Dirac(), "Dirac()", ()),
    (Delay(Fraction(-1, 2)), "Delay(lag=Fraction(-1, 2))", ("lag",)),
    (Chirp(1, 0, 2),
     "Chirp(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(2, 1))",
     ("a", "b", "c")),
    (TFrac(RatFunc(CPoly([1]), CPoly([1, 0, 1]))),
     "TFrac(rat=RatFunc('1 / (s^2 + 1)'))", ("rat",)),
    (Pole(2j, 2, Qi(0, 2)),
     "Pole(location=2j, multiplicity=2, exact=Qi(Fraction(0, 1), "
     "Fraction(2, 1)))", ("location", "multiplicity", "exact")),
    (_SRC, "SingularitySource(location=(-0-2j), kind='pole', order=1)",
     ("location", "kind", "order")),
    (_SPEC, _SPEC_TEXT, ("frequencies", "sources", "infinite_singularity")),
    (WeylOp((RatFunc.S, RatFunc.ONE)),
     "WeylOp(coeffs=(RatFunc('s'), RatFunc('1')))", ("coeffs",)),
    (OdeSystem(WeylOp.D, RatFunc.ONE),
     "OdeSystem(op=WeylOp(coeffs=(RatFunc('0'), RatFunc('1'))), "
     "rhs=RatFunc('1'))", ("op", "rhs")),
    (SingularPoint(None, "irregular", "unclassified"),
     "SingularPoint(location=None, kind='irregular', "
     "refinement='unclassified', order=0, exact=None)",
     ("location", "kind", "refinement", "order", "exact")),
    (ExpPoly(((Qi(-1), CPoly([1, 2])),)),
     "ExpPoly(terms=((Qi(Fraction(-1, 1), Fraction(0, 1)), "
     "CPoly('2s + 1')),))", ("terms",)),
    (SpectrumAnalysis(Dirac(), SignalClass.DIRAC, Spectrum((), ()),
                      dirac_image),
     "SpectrumAnalysis(expression=Dirac(), signal_class=<SignalClass.DIRAC: "
     "'dirac'>, spectrum=Spectrum(frequencies=(), sources=(), "
     "infinite_singularity=False), system=None, finite_points=(), "
     "infinity=None)",
     ("expression", "signal_class", "spectrum", "system", "finite_points",
      "infinity")),
    (VilleComparison(1.0, 2.0, 2.0, ((0.0, 0.0), (0.5, -1.5))),
     "VilleComparison(amplitude=1.0, omega=2.0, ville=2.0, "
     "rows=((0.0, 0.0), (0.5, -1.5)))",
     ("amplitude", "omega", "ville", "rows")),
    (DftResult((0.0, 3.0), (1.0, 0.5)),
     "DftResult(bin_frequencies=(0.0, 3.0), magnitudes=(1.0, 0.5))",
     ("bin_frequencies", "magnitudes")),
    (ContrastReport("sinc(2)", _SPEC, "rect", ((1, (-1.0, 1.0), 2.0),),
                    (2.0,)),
     f"ContrastReport(signal='sinc(2)', algebraic={_SPEC_TEXT}, "
     "fourier='rect', sweep=((1, (-1.0, 1.0), 2.0),), dft_dominant=(2.0,))",
     ("signal", "algebraic", "fourier", "sweep", "dft_dominant")),
    (CliConfig("instfreq", csv_path="tone.csv"),
     "CliConfig(command='instfreq', expr=None, csv_path='tone.csv', "
     "window=11, degree=3, output='text', explain=False, at=None)",
     ("command", "expr", "csv_path", "window", "degree", "output", "explain",
      "at")),
    (SampledSignal((0.0, 0.5), (1.0, -2.0)),
     "SampledSignal(times=(0.0, 0.5), values=(1.0, -2.0))",
     ("times", "values")),
    (PhiTrace((0.0, 1.0), (None, 0.25), "fitted"),
     "PhiTrace(times=(0.0, 1.0), phi=(None, 0.25), method='fitted')",
     ("times", "phi", "method")),
]

_IDS = [type(x).__name__ for x, _, _ in SAMPLES]


def _fields(x, names) -> tuple:
    return tuple(getattr(x, name) for name in names)


@pytest.mark.parametrize("x, text, names", SAMPLES, ids=_IDS)
def test_repr_and_hash_are_those_of_the_dataclass(x, text, names):
    assert repr(x) == text
    assert hash(x) == hash(_fields(x, names))


@pytest.mark.parametrize("x, text, names", SAMPLES, ids=_IDS)
def test_a_keyword_copy_and_a_pickled_copy_are_equal(x, text, names):
    copy = type(x)(**dict(zip(names, _fields(x, names))))
    assert copy == x and hash(copy) == hash(x) and not copy != x
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is type(x)
        assert back == x and repr(back) == text


@pytest.mark.parametrize("x, text, names", SAMPLES, ids=_IDS)
def test_no_field_can_be_assigned_or_deleted(x, text, names):
    for name in names + ("extra",):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


def test_values_of_two_classes_are_never_equal():
    # same field names and values, different classes
    for a, b in [(Sinc(2), RaisedCos(2)), (Sin(1), Cos(1)),
                 (TimeVar(), Dirac())]:
        assert a != b and not a == b
    values = [x for x, _, _ in SAMPLES]
    for a in values:
        for b in values:
            if type(a) is not type(b):
                assert a != b and not a == b
                assert a.__eq__(b) is NotImplemented


def test_defaults_and_keywords_of_the_constructors():
    cfg = CliConfig("instfreq", csv_path="tone.csv")
    assert (cfg.expr, cfg.window, cfg.degree, cfg.output, cfg.explain,
            cfg.at) == (None, 11, 3, "text", False, None)
    assert Sin(1).phase == 0 and Cos(omega=1).phase == 0
    point = SingularPoint(None, "regular", "pole")
    assert (point.order, point.exact, point.is_infinite) == (0, None, True)
    assert Pole(1j, 1).exact is None
    assert SingularitySource(1j, "logarithmic").order == 0
    assert not Spectrum((), ()).infinite_singularity
    assert ExpPoly().is_zero and WeylOp().is_zero
    assert ContrastReport("x", _SPEC, "f").sweep == ()


def test_the_image_of_an_analysis_is_not_compared():
    a = SpectrumAnalysis(Dirac(), SignalClass.DIRAC, Spectrum((), ()),
                         image=dirac_image)
    b = SpectrumAnalysis(Dirac(), SignalClass.DIRAC, Spectrum((), ()))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert (a.rational, b.rational) == (RatFunc.ONE, None)
