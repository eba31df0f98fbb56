"""Exact computer algebra for finite-dimensional alternative rings.

`import altrings` registers every library submodule in `sys.modules` without
running it; a submodule runs the first time one of its attributes is read, so
a command pays only for the modules it uses.  The public names below are read
from their submodules on first use (PEP 562).  `altrings.cli`, the entry
point, is imported as usual.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_SUBMODULES = (
    "algebra", "catalog", "errors", "jsonio", "liederiv",
    "linalg", "peirce", "sampling", "structure",
)

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Algebra", "Element", "associator", "check_alternative", "check_associative",
        "check_flexible", "commutator", "find_nonassociative_triple",
    ), "algebra"),
    **dict.fromkeys((
        "ConstructionRecipe", "build", "canonical_idempotent", "direct_sum",
        "find_idempotent", "matrix_algebra", "octonion_algebra", "parse_recipe",
        "random_lie_derivation", "zorn",
    ), "catalog"),
    **dict.fromkeys((
        "CentralTerm", "DecompositionResult", "MapSpec", "SampleBudget",
        "check_hypotheses", "check_lie_law", "compose", "decompose", "inner_f",
        "normalize_at_idempotent", "split_diagonal",
    ), "liederiv"),
    **dict.fromkeys((
        "Matrix", "Subspace", "column_space", "kernel", "rank", "rref", "solve",
    ), "linalg"),
    **dict.fromkeys((
        "PeirceContext", "check_conditions", "make_context",
        "verify_offdiag_centralizer", "verify_prop_spade_club", "verify_relations",
    ), "peirce"),
    **dict.fromkeys((
        "IdempotentKind", "PrimalityResult", "StructureReport", "analyze", "center",
        "centralizer", "check_prime", "commutator_subspace", "derivation_algebra",
        "is_derivation", "nucleus", "verify_idempotent",
    ), "structure"),
}

__all__ = list(_EXPORTS)


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _SUBMODULES:
    _register(_name)
del _name


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)
