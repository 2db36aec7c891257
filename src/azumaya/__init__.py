"""Exact symbolic computation for Azumaya-type noncommutative geometry:
Weyl-algebra arithmetic and its deformation family, matrix differential
operators with the rank-2 commutation suite, Higgs pairs and spectral
covers, and Cech-level twisted-sheaf verification.

Everything is exact over Q (``fractions.Fraction`` coefficients); all
values are immutable and all operations pure, so the library is safe for
unsynchronized concurrent use.
"""

from .errors import (AzumayaError, CoverMismatchError, DegenerateError,
                     InvalidInputError, ModeMismatchError, NonConstantError,
                     NotAdmissibleError, NotSplitError, PreconditionError,
                     ShapeError, UndecidableGroupError, ZeroElementError,
                     ZeroLambdaError)
from .poly import MultiPoly, parse_poly
from .linalg import (PolyMatrix, char_poly, eval_poly_at_matrix,
                     kernel_saturated, linear_solve_exact, min_poly)
from .weyl import (FORMAL, SimplicityCertificate, WeylElement,
                   act_on_polynomial, fourier, parse_weyl, reduce_to_scalar,
                   specialize_lambda, weyl_mul)
from .diffop import (HiggsingReport, MixedOperator, classify_higgsing,
                     commutation_constraint, discriminant,
                     fundamental_solutions, mixed_mul, pushforward_report,
                     solve_commutation)
from .spectral import (HiggsPair, LambdaConnectionFamily, MorphismPresentation,
                       SpectralCover, commutativity_admissible, curvature,
                       higgs_to_morphism, image_ideal, lambda_connection_check,
                       lambda_family, morphism_to_higgs, spectral_cover)
from .twisted import (Cochain1, CoverNerve, Mu, Qstar, SheafOnP1, TwistedBundle,
                      UnitCochain2, check_2cocycle, coboundary,
                      endomorphism_azumaya, hilbert_poly, is_coboundary,
                      morphism_hilbert_poly, refine, twist_matching_check,
                      twist_of_hom, twist_of_tensor, twisted_gluing_check)

__version__ = "0.1.0"
