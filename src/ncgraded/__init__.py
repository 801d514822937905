"""Exact homological computations for finitely presented graded algebras:
truncated rewriting-system completion, graded dimensions, minimal free
resolutions, Ext tables against the algebra and its enveloping algebra, and
the derived regularity/rigidity verdicts."""

from .exactla import (DEFAULT_PRIME, F32003, F46337, QQ, FieldSpec,
                      field_from_name)
from .freealg import FreeElement, GeneratorInfo, word_degree
from .presentation import (FilteredPresentation, Presentation,
                           PresentationError, builtin, builtin_names,
                           enveloping, group_algebra_oracle,
                           group_algebra_relations, homogenize, opposite,
                           ore_extension, parse, skew_polynomial)
from .groebner import RewriteSystem, complete, normal_form
from .hilbert import (ClaimSyntaxError, GKEstimate, GradedDims, RationalCheck,
                      gk_estimate, hilbert_function, series_coefficients,
                      verify_rational)
from .resolution import (BettiTable, GlobalDimReport, KoszulReport, Resolution,
                         ResolutionError, betti, gldim_upto, koszul_check,
                         minimal_resolution, resolve_cyclic)
from .duality import (ASVerdict, ExtTable, RigidityVerdict, as_check,
                      diagonal_bimodule_resolution, ext_k_A, hochschild_ext,
                      invariant_report, rigidity_check)

__version__ = "0.1.0"
