"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one PASS/FAIL line (run with -s to see them all)
and enforces its runtime budget.  Everything here is exact arithmetic; no
tolerances appear because none are needed.
"""

import json
import random
import time
from contextlib import contextmanager

from qkdv import (
    DiffPoly,
    assemble_polynomial,
    check_commute,
    check_vder_recursion,
    classical_consistency,
    classical_density,
    compare_with_wang,
    extract_coeff_table,
    from_json,
    genus0_check,
    is_homogeneous,
    reassemble_density,
    reconstruct_with_certificate,
    run_suite,
    s_partial_check,
    to_functional,
    to_json,
    wang_hamiltonian,
)
from qkdv.cache import density_path
from qkdv.fock import clear_fock_caches
from qkdv.hierarchy import clear_memory_memo
from qkdv.verify import random_density

u = DiffPoly.u


@contextmanager
def criterion(n: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget, (
            f"criterion {n} exceeded its budget: {elapsed:.2f}s >= {budget}s"
        )
    except BaseException:
        print(f"FAIL {n}: {label}")
        raise
    print(f"PASS {n}: {label} [{elapsed:.2f}s < {budget:.0f}s]")


def test_criterion_1_closed_form_expansion():
    with criterion(1, "closed-form densities for d=-1..5", 5.0):
        for d in range(-1, 6):
            rec = wang_hamiltonian(d)
            assert rec.density.hbar_coefficient(0) == classical_density(d)
            assert is_homogeneous(rec.density, 0, d + 2)


def test_criterion_2_first_hamiltonian():
    with criterion(2, "first functional equals the classical cubic", 1.0):
        assert wang_hamiltonian(1).functional == to_functional(u(0, 3) / 6)


def test_criterion_3_recursions():
    with criterion(3, "variational recursion and series partials", 5.0):
        for d in range(0, 6):
            assert check_vder_recursion(d)
        for d in range(0, 6):
            for s in range(0, d + 1):
                assert s_partial_check(d, s)


def test_criterion_4_integrability():
    with criterion(4, "pairwise commutation, d<=4 on momenta <=6", 600.0):
        for d1 in range(-1, 5):
            for d2 in range(d1 + 1, 5):
                report = check_commute(d1, d2, 6)
                assert report.witness is None
                assert report.sectors_checked == list(range(7))


def test_criterion_5_classical_calibration():
    with criterion(5, "order-hbar bracket calibration, 10 random pairs", 60.0):
        rng = random.Random(1723)
        for _ in range(10):
            f = random_density(rng, max_weight=6)
            g = random_density(rng, max_weight=6)
            assert classical_consistency(f, g, 4).witness is None


def test_criterion_6_reconstruction():
    with criterion(6, "unique reconstruction matches closed form", 600.0):
        for d, G in [(1, 2), (2, 1), (3, 1), (3, 2), (4, 1)]:
            _, cert = reconstruct_with_certificate(d, G)
            assert cert.kernel_trace[-1][1] == 0, (d, G)
            assert compare_with_wang(d, G), (d, G)


def test_criterion_7_intersection_predictor():
    with criterion(7, "intersection tables for d<=5", 10.0):
        from itertools import permutations

        for d in range(-1, 6):
            assert genus0_check(d)
            table = extract_coeff_table(d)
            assert reassemble_density(table) == wang_hamiltonian(d).density
            for g in range(0, (d + 1) // 2 + 1):
                if d + 2 - 2 * g < 1:
                    continue
                sp = assemble_polynomial(d, g)
                falling = dict(sp.falling)
                for exps, c in falling.items():
                    assert sum(exps) == 2 * g
                    for perm in permutations(exps):
                        assert falling.get(perm) == c


def test_criterion_8_infrastructure(tmp_cache):
    with criterion(8, "serialization, determinism, cache transparency", 120.0):
        # JSON round trips, bit-exact
        for d in range(-1, 5):
            f = wang_hamiltonian(d).density
            s = to_json(f)
            assert from_json(s) == f and to_json(from_json(s)) == s
        # identical runs give identical summaries
        one = run_suite("quick")
        two = run_suite("quick")
        assert one.passed and two.passed
        assert json.dumps(one.to_json_dict()) == json.dumps(two.to_json_dict())
        # cache deletion changes nothing but runtime
        reference = wang_hamiltonian(4).density
        path = density_path(4)
        assert path == tmp_cache / "wang" / "H_4.json"
        assert path.exists()
        path.unlink()
        clear_memory_memo()
        clear_fock_caches()
        assert wang_hamiltonian(4).density == reference
