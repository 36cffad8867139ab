import cmath
import random

import pytest
from conftest import (
    KS,
    MAIN_GRID,
    CycloInt,
    IntPoly,
    cat_poly_dense,
    chain_orbit_sizes,
    cyclotomic,
    eval_at_root_dense,
    eval_float,
    fixed_counts_by_powers,
    is_palindromic,
    spec_chain_g_table,
)

from ncpark.qcatalan import cat_poly, eval_at_root, fixed_chain_counts, verify_csp
from ncpark.reflgroup import GroupSpec

GRID = [
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("A", 5),
    ("B", 2),
    ("B", 3),
    ("D", 3),
    ("D", 4),
    ("I2", 3),
    ("I2", 4),
    ("I2", 5),
    ("I2", 6),
    ("I2", 7),
    ("I2", 8),
]


def test_intpoly_arithmetic():
    p = IntPoly.of([1, 2, 1])
    q = IntPoly.of([1, 1])
    assert q * q == p
    assert p.divexact(q) == q
    assert (p - p) == IntPoly.of([])
    assert p(3) == 16
    with pytest.raises(ValueError):
        IntPoly.of([1, 0, 1]).divexact(q)


@pytest.mark.parametrize("m", range(1, 65))
def test_cyclotomic_product(m):
    prod = IntPoly.one()
    for d in range(1, m + 1):
        if m % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == IntPoly.monomial(m) - IntPoly.one()


def test_cyclotomic_small():
    assert cyclotomic(1) == IntPoly.of([-1, 1])
    assert cyclotomic(2) == IntPoly.of([1, 1])
    assert cyclotomic(4) == IntPoly.of([1, 0, 1])
    assert cyclotomic(6) == IntPoly.of([1, -1, 1])


def test_cyclo_int():
    x = CycloInt.from_poly(IntPoly.of([5]), 12)
    assert x.is_integer() and x.as_integer() == 5
    y = CycloInt.from_poly(IntPoly.monomial(1), 4)
    assert not y.is_integer()
    with pytest.raises(ValueError):
        y.as_integer()


def test_cat_poly_values():
    # the A1 factor (1 - q^(kh+d))/(1 - q^d) with d = h = 2
    assert cat_poly_dense(GroupSpec("A", 2), 1) == IntPoly.of([1, 0, 1])
    assert cat_poly_dense(GroupSpec("A", 3), 1)(1) == 5
    assert cat_poly_dense(GroupSpec("A", 3), 2)(1) == 12
    for fam, p in GRID:
        spec = GroupSpec(fam, p)
        for k in (1, 2, 3):
            num = den = 1
            for d in spec.degrees:
                num *= k * spec.coxeter_number + d
                den *= d
            assert cat_poly_dense(spec, k)(1) * den == num


@pytest.mark.parametrize("fam,p", GRID)
def test_cat_poly_palindromic_nonneg(fam, p):
    for k in (1, 2, 3):
        cp = cat_poly_dense(GroupSpec(fam, p), k)
        assert all(c >= 0 for c in cp.coeffs)
        assert is_palindromic(cp)


def test_eval_at_root_dense_examples():
    p = IntPoly.of([1, 1, 1])
    assert eval_at_root_dense(p, 3, 0).as_integer() == 3
    assert eval_at_root_dense(p, 3, 1).as_integer() == 0
    cat = cat_poly_dense(GroupSpec("A", 3), 1)
    assert eval_at_root_dense(cat, 3, 1).as_integer() == 2
    with pytest.raises(ValueError):
        eval_at_root_dense(p, 3, 3)


def test_eval_at_root_examples():
    # A2: degrees 2, 3 and h = 3
    factors = cat_poly(GroupSpec("A", 3), 1)
    assert factors == ((5, 2), (6, 3))
    assert eval_at_root(factors, 3, 0) == 5
    assert eval_at_root(factors, 3, 1) == 2
    # order 2: (1 - q^3)/(1 - q) = 1 + q + q^2 is 1 at q = -1
    assert eval_at_root(((3, 1),), 2, 1) == 1
    # (1 - q^3)/(1 - q^2) is no polynomial: its value 3/2 at q = 1 is not an integer
    assert eval_at_root(((3, 2),), 1, 0) is None
    with pytest.raises(ValueError, match="need 0 <= d < m"):
        eval_at_root(factors, 3, 3)
    # 4 and 2 differ mod 3: the rule does not apply
    with pytest.raises(ValueError, match="differ mod the order 3"):
        eval_at_root(((4, 2),), 3, 1)


SIEVING_GRID = (
    [GroupSpec("A", n + 1) for n in range(1, 9)]
    + [GroupSpec("B", n) for n in range(1, 9)]
    + [GroupSpec("D", n) for n in range(3, 9)]
    + [GroupSpec("I2", m) for m in range(3, 15)]
)


def test_product_rule_matches_dense_evaluation():
    cases = 0
    for spec in SIEVING_GRID:
        for k in range(1, 6):
            kh = k * spec.coxeter_number
            factors = cat_poly(spec, k)
            dense = cat_poly_dense(spec, k)
            for d in range(kh):
                val = eval_at_root_dense(dense, kh, d)
                assert val.is_integer(), (spec, k, d)
                assert eval_at_root(factors, kh, d) == val.as_integer(), (spec, k, d)
                cases += 1
    assert cases == 4080


def test_eval_at_root_matches_float():
    rng = random.Random(7)
    for _ in range(50):
        deg = rng.randrange(0, 12)
        p = IntPoly.of([rng.randrange(-9, 10) for _ in range(deg + 1)])
        m = rng.randrange(1, 13)
        d = rng.randrange(0, m)
        exact = eval_at_root_dense(p, m, d)
        mp = m // (m if d == 0 else __import__("math").gcd(m, d))
        zeta = cmath.exp(2j * cmath.pi / mp)
        approx = eval_float(p, cmath.exp(2j * cmath.pi * d / m))
        back = sum(c * zeta**e for e, c in enumerate(exact.coeffs))
        assert abs(approx - back) < 1e-6


@pytest.mark.parametrize("fam,p", GRID)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_csp(fam, p, k):
    report = verify_csp(GroupSpec(fam, p), k)
    assert all(r["pass"] for r in report)
    assert report[0]["actual"] == cat_poly_dense(GroupSpec(fam, p), k)(1)


def test_csp_vector_a2():
    assert [r["actual"] for r in verify_csp(GroupSpec("A", 3), 1)] == [5, 2, 2]


def test_orbit_sizes_partition_the_chains():
    spec = GroupSpec("B", 2)
    sizes = chain_orbit_sizes(spec, 2)
    assert sum(sizes) == 15
    counts = fixed_chain_counts(spec, 2)
    kh = 2 * spec.coxeter_number
    for d in range(kh):
        assert counts[d] == sum(s for s in sizes if d % s == 0)


@pytest.mark.parametrize("fam,p", MAIN_GRID)
@pytest.mark.parametrize("k", KS)
def test_fixed_chain_counts_match_powers(fam, p, k):
    spec = GroupSpec(fam, p)
    garr = spec_chain_g_table(spec, k)
    kh = k * spec.coxeter_number
    assert fixed_chain_counts(spec, k) == fixed_counts_by_powers(garr, range(len(garr)), kh)
