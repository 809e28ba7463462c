"""Exact symbolic engine for a quantized dispersionless KdV hierarchy.

``import qkdv`` runs this module only: it defines ``ENGINE_VERSION``, which
keys the density cache.  Every other public name, and every submodule,
resolves on first access through ``__getattr__``, which imports the module
that ``_PUBLIC`` names as its home with ``importlib.import_module`` (and so
under the import lock); a submodule is imported with whatever it imports
itself.  ``qkdv.cli`` additionally registers the modules it binds before it
uses them (``fock``, ``intersection``, ``linalg``, ``reconstruction``,
``render``, ``verify``) through ``importlib.util.LazyLoader``: those run on
first attribute access, so a command that does not use one never compiles
it.  On Python 3.10 and 3.11 ``LazyLoader`` takes no lock, so after ``import
qkdv.cli`` the first access to one of those six must not race another
thread's; qkdv itself starts no threads.  ``__all__`` is ``ENGINE_VERSION``
and the names of ``_PUBLIC``.
"""

import importlib

ENGINE_VERSION = "0.1.0"
__version__ = ENGINE_VERSION

# every submodule and the public names it exports from the package root
_PUBLIC = {
    "cache": (),
    "cli": (),
    "diffpoly": (
        "Bidegree", "DiffMonomial", "DiffPoly", "OddPowerError", "bidegree_of",
        "dx", "from_json", "from_json_dict", "is_homogeneous", "partial_u",
        "scale_substitute", "to_json", "to_json_dict", "variational_derivative",
    ),
    "fock": (
        "CommutatorNonzero", "CommuteReport", "FockVector", "MismatchError",
        "Partition", "SectorScalar", "apply_quantized", "check_commute",
        "classical_consistency", "commutator_apply", "partitions_of",
    ),
    "functionals": (
        "LocalFunctional", "component_monomials", "functional_basis",
        "integrand_normal_form", "poisson_bracket", "poisson_density",
        "to_functional",
    ),
    "hierarchy": (
        "HamiltonianRecord", "SSeries", "check_vder_recursion",
        "classical_density", "classical_flow_rhs", "s_partial_check",
        "s_series", "wang_hamiltonian",
    ),
    "intersection": (
        "FallingCoeffTable", "StrataPolynomial", "WeightMismatchError",
        "assemble_polynomial", "extract_coeff_table", "falling_convert",
        "genus0_check", "reassemble_density",
    ),
    "linalg": (),
    "reconstruction": (
        "Ansatz", "InconsistentError", "ReconstructionCertificate",
        "UnderdeterminedError", "build_ansatz", "compare_with_wang",
        "reconstruct", "reconstruct_with_certificate",
    ),
    "render": (),
    "scalars": ("Scalar", "as_scalar"),
    "verify": ("VerifySummary", "run_suite"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted([*_HOME, "ENGINE_VERSION"])


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_PUBLIC))
