"""The full verification suite behind ``qkdv verify-all``.

Every check is exact: a check passes only when the asserted identity holds
on the nose.  The quick level keeps indices and momenta small; the full
level runs the complete desk-scale ranges.  All output is deterministic
(seeded randomness, no timings), so two runs with the same configuration
produce identical bytes.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from . import cache as _cache
from .diffpoly import (
    DiffPoly,
    from_json,
    is_homogeneous,
    to_json,
)
from .fock import check_commute, classical_consistency
from .functionals import to_functional
from .hierarchy import (
    classical_density,
    check_vder_recursion,
    clear_memory_memo,
    s_series,
    wang_hamiltonian,
)
from .intersection import (
    _closed_form,
    assemble_polynomial,
    extract_coeff_table,
    falling_convert,
    reassemble_density,
)
from .reconstruction import compare_with_wang, reconstruct_with_certificate
from .scalars import Scalar

_LEVELS = {
    "quick": {
        "ham_dmax": 3,
        "commute_dmax": 3,
        "commute_mmax": 5,
        "calibration_pairs": 5,
        "calibration_mmax": 3,
        "reconstruction": ((2, 1),),
    },
    "full": {
        "ham_dmax": 5,
        "commute_dmax": 4,
        "commute_mmax": 6,
        "calibration_pairs": 10,
        "calibration_mmax": 4,
        "reconstruction": ((1, 2), (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2)),
    },
}

_CALIBRATION_SEED = 1723


CheckResult = namedtuple("CheckResult", "name passed detail")


class VerifySummary(namedtuple("VerifySummary", "level results")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "checks": [r._asdict() for r in self.results],
        }


def known_first_density() -> DiffPoly:
    """The d=1 density, written out independently of the expansion code."""
    return DiffPoly.u(0, 3) / 6 + DiffPoly.term(
        Scalar.of(0, Fraction(-1, 12)), {2: 1}, hbar=1
    )


def _check_expansion(bounds) -> str:
    dmax = bounds["ham_dmax"]
    for d in range(-1, dmax + 1):
        record = wang_hamiltonian(d)
        if record.density.hbar_coefficient(0) != classical_density(d):
            raise AssertionError(f"classical limit of H_{d} is wrong")
        if not is_homogeneous(record.density, 0, d + 2):
            raise AssertionError(f"H_{d} is not grade-0 weight-{d + 2}")
    if wang_hamiltonian(1).density != known_first_density():
        raise AssertionError("H_1 differs from its frozen value")
    return f"d=-1..{dmax}: classical limits, bidegrees and frozen H_1 agree"


def _check_first_functional(bounds) -> str:
    lhs = to_functional(DiffPoly.u(0, 3) / 6)
    rhs = wang_hamiltonian(1).functional
    if lhs != rhs:
        raise AssertionError("H_1 functional differs from u^3/6")
    return "H_1 equals the cubic functional exactly"


def _check_recursions(bounds) -> str:
    dmax = bounds["ham_dmax"]
    for d in range(dmax + 1):
        if not check_vder_recursion(d):
            raise AssertionError(f"variational recursion fails at d={d}")
    for d in range(dmax + 1):
        series = s_series(d + 1)
        for s in range(d + 2):
            if not series.partial_holds(d, s):
                raise AssertionError(f"series partial fails at d={d}, s={s}")
    return f"variational recursion and series partials hold for d<={dmax}"


def _check_integrability(bounds) -> str:
    dmax = bounds["commute_dmax"]
    mmax = bounds["commute_mmax"]
    pairs = 0
    widest = 0
    for d1 in range(-1, dmax + 1):
        for d2 in range(d1 + 1, dmax + 1):
            report = check_commute(d1, d2, mmax)
            widest = max(widest, report.max_intermediate_dimension)
            pairs += 1
    return (
        f"{pairs} pairs commute on momenta <= {mmax} "
        f"(max intermediate dimension {widest})"
    )


def random_density(rng: random.Random) -> DiffPoly:
    """A small hbar-free density of weight <= 6 with exact integer coefficients."""
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, 3)):
        w = rng.randint(2, 6)
        n = rng.randint(1, w)
        cuts = sorted(rng.sample(range(1, w), n - 1)) if n > 1 else []
        bounds_seq = [0] + cuts + [w]
        jets = [
            bounds_seq[i + 1] - bounds_seq[i] - 1 for i in range(n)
        ]
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + DiffPoly.term(coeff, [(s, 1) for s in jets])
    return out


def _check_calibration(bounds) -> str:
    rng = random.Random(_CALIBRATION_SEED)
    npairs = bounds["calibration_pairs"]
    mmax = bounds["calibration_mmax"]
    for _ in range(npairs):
        f = random_density(rng)
        g = random_density(rng)
        classical_consistency(f, g, mmax)
    return f"{npairs} seeded density pairs calibrate at order hbar"


def _check_reconstruction(bounds) -> str:
    cases = bounds["reconstruction"]
    # the solve raises UnderdeterminedError unless its last nullity is zero
    for d, G in cases:
        if not compare_with_wang(d, G):
            raise AssertionError(f"reconstruction (d={d}, G={G}) disagrees")
    pretty = ", ".join(f"({d},{G})" for d, G in cases)
    detail = f"reconstructed {pretty} with zero-dimensional kernels"
    # a complete ansatz (no block beyond hbar^G) certifies the whole density;
    # name those cases when some others are truncations
    certified = (reconstruct_with_certificate(d, G)[1] for d, G in cases)
    whole = [f"({c.d},{c.G})" for c in certified if c.hbar_window is None]
    if len(whole) < len(cases):
        detail += "; whole densities for " + ", ".join(whole)
    return detail


def _check_intersection(bounds) -> str:
    dmax = bounds["ham_dmax"]
    for d in range(-1, dmax + 1):
        table = extract_coeff_table(d)
        if reassemble_density(table) != wang_hamiltonian(d).density:
            raise AssertionError(f"coefficient table round trip fails at d={d}")
        for g in table.genera():
            if d + 2 - 2 * g < 1:
                continue
            sp = assemble_polynomial(d, g)
            if g == 0 and not sp.is_constant_one():
                raise AssertionError(f"genus-0 polynomial is not 1 at d={d}")
            if not sp.is_symmetric():
                raise AssertionError(f"asymmetric polynomial at d={d}, g={g}")
            if sp.falling_degrees() not in (set(), {2 * g}):
                raise AssertionError(f"wrong falling degree at d={d}, g={g}")
            back = falling_convert(sp.power_dict(), "to_falling")
            if back != sp.falling_dict():
                raise AssertionError(f"basis round trip fails at d={d}, g={g}")
            if sp.falling_dict() != _closed_form(sp.n, g):
                raise AssertionError(f"not the closed form at d={d}, g={g}")
    return f"tables for d<={dmax}: symmetric, degree 2g, round trips exact"


def _check_infrastructure(bounds) -> str:
    dmax = bounds["ham_dmax"]
    serialized = {}
    for d in range(-1, dmax + 1):
        density = wang_hamiltonian(d).density
        blob = to_json(density)
        if from_json(blob) != density or to_json(from_json(blob)) != blob:
            raise AssertionError(f"JSON round trip fails for H_{d}")
        serialized[d] = blob
    clear_memory_memo()
    for d in range(-1, dmax + 1):
        path = _cache.density_path(d)
        if path.exists():
            path.unlink()
    for d in range(-1, dmax + 1):
        if to_json(wang_hamiltonian(d).density) != serialized[d]:
            raise AssertionError(f"recomputation differs for H_{d}")
    clear_memory_memo()
    for d in range(-1, dmax + 1):
        if to_json(wang_hamiltonian(d).density) != serialized[d]:
            raise AssertionError(f"cached reload differs for H_{d}")
    return f"serialization round trips; cache deletion is transparent (d<={dmax})"


_CHECKS = (
    ("closed-form-expansion", _check_expansion),
    ("first-hamiltonian", _check_first_functional),
    ("recursion-identities", _check_recursions),
    ("integrability", _check_integrability),
    ("classical-calibration", _check_calibration),
    ("reconstruction-uniqueness", _check_reconstruction),
    ("intersection-predictor", _check_intersection),
    ("infrastructure", _check_infrastructure),
)


def run_suite(level: str = "quick", echo=None) -> VerifySummary:
    if level not in _LEVELS:
        raise ValueError(f"unknown level {level!r}; use quick or full")
    bounds = _LEVELS[level]
    results = []
    for name, fn in _CHECKS:
        try:
            detail = fn(bounds)
            passed = True
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(CheckResult(name, passed, detail))
        if echo is not None:
            echo(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return VerifySummary(level, results)
