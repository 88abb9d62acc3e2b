"""Algebraic signal spectra.

A signal's spectrum is computed here without any integral transform: an
exponential polynomial maps to a rational function of s whose poles carry
the frequencies (nonzero imaginary parts); signals outside that class —
sinc, raised cosine, delays, chirps — are pinned down by a linear
differential equation in the operational variable, and the classified
singular points of that equation play the same role.  A curvature-based
instantaneous frequency and a classical DFT contrast mode round out the
picture.
"""

from .ratfield import (CPoly, PartialFractions, PFTerm, Pole, Qi, RatFunc,
                       RootFindingError, SingularitySource, Spectrum,
                       alg_deriv, clean_frequencies, partial_fractions,
                       poles, poly_gcd, poly_roots, spectrum_of_rational,
                       square_free_factors)
from .sigexpr import (Add, Chirp, Const, Cos, Delay, Dirac, EvaluationError,
                      Exp, ExpressionError, Mul, ParameterError, Pow,
                      RaisedCos, SignalClass, SignalExpr, SignalSyntaxError,
                      Sin, Sinc, TFrac, TimeVar, canonical, classify,
                      evaluate, make_add, make_div, make_exp, make_mul,
                      make_pow, parse, pretty_print, split_scale)
from .opcalc import (ExpPoly, dirac_image, from_signal, mult_by_minus_t,
                     taylor_truncate, to_exppoly, to_rational)
from .weylode import (OdeSystem, SingularPoint, WeylOp, apply,
                      catalog_equation, finite_singularities, format_equation,
                      format_weylop, mul_ops, singularity_at_infinity,
                      spectrum_of_ode)
from .instfreq import (PhiTrace, SampledSignal, VilleComparison, phi_fitted,
                       phi_symbolic, phi_vs_ville_note)
from .fouriercontrast import (ContrastReport, DftResult, contrast_report,
                              dft, dft_direct, sinc_fourier_closed_form)
from .pipeline import SpectrumAnalysis, analyze

__version__ = "0.1.0"

__all__ = [
    # ratfield
    "CPoly", "PartialFractions", "PFTerm", "Pole", "Qi", "RatFunc",
    "RootFindingError", "SingularitySource", "Spectrum", "alg_deriv",
    "clean_frequencies", "partial_fractions", "poles", "poly_gcd",
    "poly_roots", "spectrum_of_rational", "square_free_factors",
    # sigexpr
    "Add", "Chirp", "Const", "Cos", "Delay", "Dirac", "EvaluationError",
    "Exp", "ExpressionError", "Mul", "ParameterError", "Pow", "RaisedCos",
    "SignalClass", "SignalExpr", "SignalSyntaxError", "Sin", "Sinc", "TFrac",
    "TimeVar", "canonical", "classify", "evaluate", "make_add", "make_div",
    "make_exp", "make_mul", "make_pow", "parse", "pretty_print",
    "split_scale",
    # opcalc
    "ExpPoly", "dirac_image", "from_signal", "mult_by_minus_t",
    "taylor_truncate", "to_exppoly", "to_rational",
    # weylode
    "OdeSystem", "SingularPoint", "WeylOp", "apply", "catalog_equation",
    "finite_singularities", "format_equation", "format_weylop", "mul_ops",
    "singularity_at_infinity", "spectrum_of_ode",
    # instfreq
    "PhiTrace", "SampledSignal", "VilleComparison", "phi_fitted",
    "phi_symbolic", "phi_vs_ville_note",
    # fouriercontrast
    "ContrastReport", "DftResult", "contrast_report", "dft", "dft_direct",
    "sinc_fourier_closed_form",
    # pipeline
    "SpectrumAnalysis", "analyze",
]
