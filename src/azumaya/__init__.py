"""Exact symbolic computation for Azumaya-type noncommutative geometry:
Weyl-algebra arithmetic and its deformation family, matrix differential
operators with the rank-2 commutation suite, Higgs pairs and spectral
covers, and Cech-level twisted-sheaf verification.

Everything is exact over Q: polynomials and Weyl elements hold integer
numerators over one positive denominator, scalars are ``Fraction``; all
values are immutable and all operations pure, so the library is safe for
unsynchronized concurrent use.

``import azumaya`` runs none of the submodules.  Each is registered in
``sys.modules`` and on the package as a placeholder that runs the module's
code once, under one lock, on the first read of one of its names; the
package's own names resolve through ``__getattr__`` (PEP 562).  So a
command runs only the modules it uses: ``azk weyl nf`` runs ``cli``,
``errors``, ``poly``, ``suites`` and ``weyl``.  ``cli`` itself is imported
as usual, as ``python -m azumaya.cli`` warns about a module that is already
in ``sys.modules``.
"""

import sys as _sys
from importlib.util import find_spec as _find_spec, module_from_spec as _module_from_spec
from threading import RLock as _RLock
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("AzumayaError", "CoverMismatchError", "DegenerateError", "InvalidInputError",
               "ModeMismatchError", "NonConstantError", "NotAdmissibleError", "NotSplitError",
               "PreconditionError", "ShapeError", "UndecidableGroupError", "ZeroElementError",
               "ZeroLambdaError"),
    "poly": ("MultiPoly", "parse_poly"),
    "linalg": ("PolyMatrix", "char_poly", "eval_poly_at_matrix", "kernel_saturated",
               "linear_solve_exact", "min_poly"),
    "weyl": ("FORMAL", "SimplicityCertificate", "WeylElement", "act_on_polynomial", "fourier",
             "parse_weyl", "reduce_to_scalar", "specialize_lambda", "weyl_mul"),
    "diffop": ("HiggsingReport", "MixedOperator", "classify_higgsing", "commutation_constraint",
               "discriminant", "fundamental_solutions", "mixed_mul", "pushforward_report",
               "solve_commutation"),
    "spectral": ("HiggsPair", "LambdaConnectionFamily", "MorphismPresentation", "SpectralCover",
                 "commutativity_admissible", "curvature", "higgs_to_morphism", "image_ideal",
                 "lambda_connection_check", "lambda_family", "morphism_to_higgs",
                 "spectral_cover"),
    "twisted": ("Cochain1", "CoverNerve", "Mu", "Qstar", "SheafOnP1", "TwistedBundle",
                "UnitCochain2", "check_2cocycle", "coboundary", "endomorphism_azumaya",
                "hilbert_poly", "is_coboundary", "morphism_hilbert_poly", "refine",
                "twist_matching_check", "twist_of_hom", "twist_of_tensor",
                "twisted_gluing_check"),
    "zmod": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]

_LOCK = _RLock()
_loading = set()        # the placeholders whose code is running


class _Submodule(_ModuleType):
    """A submodule whose code has not run yet.  The first read of a name
    that is not a dunder (``__all__`` aside) runs it in this module object
    under ``_LOCK``, and the object then becomes a plain module.  Another
    thread reading meanwhile waits for the load; a read from inside the
    load sees the names defined so far, as a partially imported module
    does, and ``AttributeError`` for the rest."""

    def __getattribute__(self, name):
        if name[:2] != "__" or name == "__all__":
            _load(self)
        return _ModuleType.__getattribute__(self, name)


def _load(module):
    with _LOCK:
        if type(module) is not _ModuleType and module not in _loading:
            _loading.add(module)
            try:
                module.__spec__.loader.exec_module(module)
                module.__class__ = _ModuleType
            finally:
                _loading.discard(module)


def _placeholder(name):
    full = f"{__name__}.{name}"
    if full not in _sys.modules:        # a reload of the package keeps loaded modules
        module = _module_from_spec(_find_spec(full))
        module.__class__ = _Submodule
        _sys.modules[full] = module
    return _sys.modules[full]


globals().update({name: _placeholder(name) for name in (*_EXPORTS, "suites")})


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_HOME})
