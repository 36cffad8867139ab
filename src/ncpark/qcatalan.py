"""Cyclic sieving verification by the product rule for the q-Fuss-Catalan
polynomial.

Cat^(k)(W; q) is the product of (1 - q^(kh+d)) / (1 - q^d) over the
degrees d of W.  At a root of unity of order e dividing kh, the exponents
kh + d and d agree mod e, so a factor is 1 when e does not divide d and
tends to (kh+d)/d when it does: the value is an integer product, and no
polynomial is ever built.  The chain side reads only the cycle lengths of
the chain g-table.
"""

from __future__ import annotations

import math
from collections import Counter

from .reflgroup import GroupSpec, group, table_cycles
from . import ncw


def cat_poly(spec: GroupSpec, k: int) -> tuple[tuple[int, int], ...]:
    """The q-Fuss-Catalan polynomial as its factors (a, b), each standing
    for (1 - q^a) / (1 - q^b): a = kh + d and b = d for each degree d."""
    kh = k * spec.coxeter_number
    return tuple((kh + d, d) for d in spec.degrees)


def _multiplied(factors, m: int, d: int) -> tuple[int, list[tuple[int, int]]]:
    """The order e of omega^d, omega a primitive m-th root of unity, and
    the factors (a, b) with e | b, whose limits a/b the value multiplies;
    every other factor is 1 there."""
    if m < 1 or not 0 <= d < m:
        raise ValueError(f"need 0 <= d < m, got d={d}, m={m}")
    e = m // math.gcd(m, d)
    bad = [(a, b) for a, b in factors if (a - b) % e]
    if bad:
        raise ValueError(f"factors {bad} have exponents that differ mod the order {e}")
    return e, [(a, b) for a, b in factors if b % e == 0]


def eval_at_root(factors, m: int, d: int) -> int | None:
    """The product of the factors (1 - q^a) / (1 - q^b) at q = omega^d, or
    None when that value is not an integer."""
    num = den = 1
    for a, b in _multiplied(factors, m, d)[1]:
        num *= a
        den *= b
    value, rem = divmod(num, den)
    return None if rem else value


def fixed_chain_counts(spec: GroupSpec, k: int) -> list[int]:
    """Number of k-multichains fixed by g^d, for d = 0, ..., kh-1: the sum
    of the lengths L of the g-cycles on chains with L | d."""
    nc = ncw.build_nc(group(spec.family, spec.param))
    lengths = Counter(map(len, table_cycles(ncw.chain_g_table(nc, nc.multichains(k)))))
    return [sum(L * c for L, c in lengths.items() if d % L == 0) for d in range(k * spec.coxeter_number)]


def verify_csp(spec: GroupSpec, k: int) -> list[dict]:
    """Check the sieving identity: the chains g^d fixes against the
    q-Fuss-Catalan polynomial at omega^d, for every d.  A failing row
    carries a witness: the order of omega^d and the factors multiplied."""
    kh = k * spec.coxeter_number
    factors = cat_poly(spec, k)
    counts = fixed_chain_counts(spec, k)
    report = []
    for d in range(kh):
        expected = eval_at_root(factors, kh, d)
        row = {"d": d, "expected": expected, "actual": counts[d], "pass": expected == counts[d]}
        if not row["pass"]:
            e, used = _multiplied(factors, kh, d)
            row["witness"] = {"order": e, "factors": used}
        report.append(row)
    return report
