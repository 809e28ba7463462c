"""Shared strategies and helpers for the test suite.

Random differential polynomials are built from explicit composition data so
that shrinking stays readable: a draw is a list of (coefficient, jets, hbar)
triples rather than an opaque object.
"""

import shutil
import tempfile
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qkdv import DiffPoly, FockVector, Scalar
from qkdv.cache import ENV_VAR

# Each example asserts an exact identity, so its run time on a loaded or slow
# machine says nothing about correctness: Hypothesis's 200 ms deadline only
# turns a slow example into a spurious failure.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


def pytest_configure(config):
    """Point the default density cache at a temp dir for the whole session.

    A hook, not a fixture: test modules call wang_hamiltonian at import, so
    the cache is already read during collection, before any fixture runs.
    The suite thus never reads or writes the working tree's .qkdv-cache.
    """
    env = pytest.MonkeyPatch()
    cache = tempfile.mkdtemp(prefix="qkdv-cache-")
    env.setenv(ENV_VAR, cache)
    config.add_cleanup(lambda: shutil.rmtree(cache, ignore_errors=True))
    config.add_cleanup(env.undo)


def stores_no_zero(x) -> bool:
    """True when a DiffPoly, SectorScalar or FockVector stores no zero value."""
    if isinstance(x, FockVector):
        amps = [amp for _, amp in x.terms_sorted()]
        return all(amps) and all(stores_no_zero(amp) for amp in amps)
    return all(c for _, c in x.terms())


small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=4),
)

small_scalar = st.builds(Scalar.of, small_fraction, small_fraction)

# A monomial as (coefficient, (jet orders), hbar power).  Weight stays small
# so Fock-side tests remain fast: sum (s_i + 1) <= 6.
_jets = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=3
).filter(lambda js: sum(j + 1 for j in js) <= 6)


def _to_poly(triples) -> DiffPoly:
    total = DiffPoly.zero()
    for coeff, jets, h in triples:
        uexp: dict[int, int] = {}
        for j in jets:
            uexp[j] = uexp.get(j, 0) + 1
        total = total + DiffPoly.term(coeff, tuple(sorted(uexp.items())), hbar=h)
    return total


diff_polys = st.builds(
    _to_poly,
    st.lists(
        st.tuples(small_scalar, _jets, st.integers(min_value=0, max_value=2)),
        min_size=1,
        max_size=3,
    ),
)

hbar_free_polys = st.builds(
    _to_poly,
    st.lists(st.tuples(small_scalar, _jets, st.just(0)), min_size=1, max_size=3),
)


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    """An isolated cache directory, chosen through $QKDV_CACHE for one test,
    so tests never share disk state."""
    d = tmp_path / "cache"
    d.mkdir()
    monkeypatch.setenv(ENV_VAR, str(d))
    return d
