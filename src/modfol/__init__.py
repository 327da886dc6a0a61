"""Exact modular-symbol computations and foliation classification for X0(N)."""

from .congruence import curve_data
from .eigen import EigenformOrbit, decompose
from .foliation import (FoliationClass, FoliationKind, JacobianModule,
                        TorusClass, TorusKind, basis_change, classify,
                        classify_torus, module_rank, scale_module)
from .iet import IET, iet_apply, minimality_probe, periodicity_report, rauzy_step
from .modsym import ModularSymbolSpace
from .numfield import NFElement, NumberField, RealEmbedding
from .periods import (PeriodVector, detect_rank, ensure_series,
                      numeric_jacobian, period_integral, required_terms)
from .pipeline import analyze_level, orbit_from_record
from .polys import QPolynomial

__version__ = "0.1.0"

__all__ = [
    "EigenformOrbit", "FoliationClass", "FoliationKind", "IET",
    "JacobianModule", "ModularSymbolSpace", "NFElement", "NumberField",
    "PeriodVector", "QPolynomial", "RealEmbedding", "TorusClass",
    "TorusKind", "analyze_level", "basis_change", "classify",
    "classify_torus", "curve_data", "decompose", "detect_rank",
    "ensure_series", "iet_apply", "minimality_probe", "module_rank",
    "numeric_jacobian", "orbit_from_record", "period_integral",
    "periodicity_report", "rauzy_step", "required_terms", "scale_module",
    "__version__",
]
