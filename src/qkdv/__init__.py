"""Exact symbolic engine for a quantized dispersionless KdV hierarchy.

The modules a density request needs (``scalars``, ``diffpoly``, ``linalg``,
``functionals``, ``cache``, ``hierarchy``, ``render``) are imported as usual.
The four command-level modules, ``fock``, ``intersection``, ``reconstruction``
and ``verify``, are registered in ``sys.modules`` through
``importlib.util.LazyLoader`` and run on first attribute access, so a process
that only prints a density never compiles or runs them.  Their names in
``__all__`` resolve from the package root through ``__getattr__``.  On Python
3.10 and 3.11 ``LazyLoader`` takes no lock, so the first access to a lazy
module must not race another thread's; qkdv itself starts no threads.
"""

import importlib.util
import sys

from ._version import ENGINE_VERSION
from .diffpoly import (
    Bidegree,
    DiffMonomial,
    DiffPoly,
    OddPowerError,
    bidegree_of,
    dx,
    from_json,
    from_json_dict,
    is_homogeneous,
    partial_u,
    scale_substitute,
    to_json,
    to_json_dict,
    variational_derivative,
)
from .functionals import (
    LocalFunctional,
    functional_basis,
    integrand_normal_form,
    component_monomials,
    poisson_bracket,
    poisson_density,
    to_functional,
)
from .hierarchy import (
    HamiltonianRecord,
    SSeries,
    classical_density,
    classical_flow_rhs,
    check_vder_recursion,
    s_partial_check,
    s_series,
    wang_hamiltonian,
)
from .scalars import Scalar, as_scalar

__version__ = ENGINE_VERSION

# names in __all__ that live in a lazily loaded module, by module
_LAZY = {
    "fock": (
        "CommutatorNonzero", "CommuteReport", "FockVector", "MismatchError",
        "Partition", "SectorScalar", "apply_quantized", "check_commute",
        "classical_consistency", "commutator_apply", "partitions_of",
    ),
    "intersection": (
        "FallingCoeffTable", "StrataPolynomial", "WeightMismatchError",
        "assemble_polynomial", "extract_coeff_table", "falling_convert",
        "genus0_check", "reassemble_density",
    ),
    "reconstruction": (
        "Ansatz", "InconsistentError", "ReconstructionCertificate",
        "UnderdeterminedError", "build_ansatz", "compare_with_wang",
        "reconstruct", "reconstruct_with_certificate",
    ),
    "verify": ("VerifySummary", "run_suite"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


fock = _lazy("fock")
intersection = _lazy("intersection")
reconstruction = _lazy("reconstruction")
verify = _lazy("verify")


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "Ansatz", "Bidegree", "CommutatorNonzero", "CommuteReport", "DiffMonomial",
    "DiffPoly", "ENGINE_VERSION", "FallingCoeffTable", "FockVector",
    "HamiltonianRecord", "InconsistentError", "LocalFunctional",
    "MismatchError", "OddPowerError", "Partition", "ReconstructionCertificate",
    "Scalar", "SectorScalar", "SSeries", "StrataPolynomial",
    "UnderdeterminedError", "VerifySummary", "WeightMismatchError",
    "apply_quantized", "as_scalar", "assemble_polynomial", "bidegree_of",
    "build_ansatz", "check_commute", "check_vder_recursion",
    "classical_consistency", "classical_density", "classical_flow_rhs",
    "commutator_apply", "compare_with_wang", "component_monomials", "dx",
    "extract_coeff_table", "falling_convert", "from_json", "from_json_dict",
    "functional_basis", "genus0_check", "integrand_normal_form",
    "is_homogeneous", "partial_u", "partitions_of", "poisson_bracket",
    "poisson_density", "reassemble_density", "reconstruct",
    "reconstruct_with_certificate", "run_suite", "s_partial_check", "s_series",
    "scale_substitute", "to_functional", "to_json", "to_json_dict",
    "variational_derivative", "wang_hamiltonian",
]
