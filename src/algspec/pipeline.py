"""Routing from a parsed expression to its spectrum.

Exponential polynomials read their spectrum off their exact rates, which
are the poles of their rational image; the Dirac impulse maps to a
constant, which has no poles, so its spectrum is empty; catalog atoms go
through their defining operational equation and its singular points, each
classified once: the same pass fills the explanation and yields the
spectrum.  Anything else is refused rather than approximated.  The
rational image is built only when it is read, which the spectrum and the
contrast never do; `image` builds it without the spectrum.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

from . import opcalc, weylode
from .ratfield import RatFunc, Spectrum, _FrozenValue
from .sigexpr import (SignalClass, SignalExpr, ExpressionError, classify,
                      split_scale)
from .weylode import OdeSystem, SingularPoint

__all__ = ["SpectrumAnalysis", "analyze", "image"]


class SpectrumAnalysis(_FrozenValue):
    """Spectrum plus the intermediate objects that explain it.

    `image` builds the operational image, which only what prints it reads,
    through `rational`; it takes no part in equality, hash or repr.
    `system` is set on the equation route."""

    _fields = ("expression", "signal_class", "spectrum", "system",
               "finite_points", "infinity")

    def __init__(self, expression: SignalExpr, signal_class: SignalClass,
                 spectrum: Spectrum,
                 image: Callable[[], RatFunc | None] = lambda: None,
                 system: OdeSystem | None = None, finite_points: tuple = (),
                 infinity: SingularPoint | None = None):
        object.__setattr__(self, "expression", expression)
        object.__setattr__(self, "signal_class", signal_class)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "finite_points", finite_points)
        object.__setattr__(self, "infinity", infinity)

    @cached_property
    def rational(self) -> RatFunc | None:
        """The operational image, built on first read."""
        return self.image()


def analyze(e: SignalExpr) -> SpectrumAnalysis:
    """Compute the spectrum of a supported expression."""
    kind = classify(e)
    if kind == SignalClass.EXP_POLYNOMIAL:
        x = opcalc._expand(e)
        return SpectrumAnalysis(e, kind, opcalc.spectrum_of_exppoly(x),
                                image=lambda: opcalc.to_rational(x))
    if kind == SignalClass.DIRAC:
        return SpectrumAnalysis(e, kind, Spectrum((), ()),
                                image=lambda: image(e))
    if kind == SignalClass.ODE_DEFINED:
        sys = weylode.catalog_equation(e)
        finite = tuple(weylode.finite_singularities(sys))
        infinity = weylode.singularity_at_infinity(sys)
        return SpectrumAnalysis(
            e, kind, weylode.spectrum_of_points(sys, finite, infinity),
            system=sys, finite_points=finite, infinity=infinity)
    raise ExpressionError(
        "no spectrum method for this expression; supported classes are "
        "exponential polynomials, the impulse, and the catalog atoms")


def image(e: SignalExpr) -> RatFunc | None:
    """The operational image of an exponential polynomial or the impulse,
    None for any other expression.  No spectrum is built, so an image whose
    rates are beyond the float range is still exact."""
    kind = classify(e)
    if kind == SignalClass.EXP_POLYNOMIAL:
        return opcalc.to_rational(opcalc._expand(e))
    if kind == SignalClass.DIRAC:
        scale, _ = split_scale(e)
        return opcalc.dirac_image() * RatFunc(scale)
    return None
