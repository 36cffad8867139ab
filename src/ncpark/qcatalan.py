"""Exact q-analog arithmetic and cyclic sieving verification.

Polynomials are dense integer-coefficient vectors; evaluations at roots of
unity live in the ring Z[zeta_m] reduced modulo the m-th cyclotomic
polynomial, so sieving identities are checked by integer equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .reflgroup import GroupSpec, group
from . import ncw
from .parkspace import Cycles, fixed_counts


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; trailing zeros trimmed on construction."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs) -> "IntPoly":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return IntPoly(tuple(coeffs))

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def monomial(d: int, c: int = 1) -> "IntPoly":
        return IntPoly.of([0] * d + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly.of(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + IntPoly.of([-x for x in other.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return IntPoly.of(out)

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact division; raises when the remainder does not vanish."""
        q, r = self.divmod(other)
        if r.coeffs:
            raise ValueError(f"nonzero remainder {r.coeffs} dividing by {other.coeffs}")
        return q

    def divmod(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        if not other.coeffs:
            raise ZeroDivisionError
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        db = other.degree
        q = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i] == 0:
                continue
            if rem[i] % lead:
                raise ValueError("division does not stay integral")
            f = rem[i] // lead
            q[i - db] = f
            for j, y in enumerate(other.coeffs):
                rem[i - db + j] -= f * y
        return IntPoly.of(q), IntPoly.of(rem)

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        return f"IntPoly{self.coeffs}"


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial by iterated exact division."""
    num = IntPoly.monomial(m) - IntPoly.one()
    for d in range(1, m):
        if m % d == 0:
            num = num.divexact(cyclotomic(d))
    return num


@dataclass(frozen=True)
class CycloInt:
    """Element of Z[zeta_m], coefficients reduced mod the m-th cyclotomic
    polynomial."""

    m: int
    coeffs: tuple[int, ...]

    @staticmethod
    def from_poly(p: IntPoly, m: int) -> "CycloInt":
        _, rem = p.divmod(cyclotomic(m))
        deg = cyclotomic(m).degree
        coeffs = list(rem.coeffs) + [0] * (deg - len(rem.coeffs))
        return CycloInt(m, tuple(coeffs))

    def is_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        return f"CycloInt(m={self.m}, {self.coeffs})"


def cat_poly(spec: GroupSpec, k: int) -> IntPoly:
    """The q-Fuss-Catalan polynomial prod (1 - q^(kh+d)) / (1 - q^d)."""
    h = spec.coxeter_number
    num = IntPoly.one()
    den = IntPoly.one()
    for d in spec.degrees:
        num = num * (IntPoly.one() - IntPoly.monomial(k * h + d))
        den = den * (IntPoly.one() - IntPoly.monomial(d))
    return num.divexact(den)


def eval_at_root(p: IntPoly, m: int, d: int) -> CycloInt:
    """Evaluate p at omega^d where omega is a primitive m-th root of unity.

    omega^d is a primitive root of order m' = m/gcd(m,d); exponents fold
    into Z[zeta_{m'}] and reduce mod the cyclotomic polynomial.
    """
    if m < 1 or not 0 <= d < m:
        raise ValueError(f"need 0 <= d < m, got d={d}, m={m}")
    g = math.gcd(m, d)
    mp = m // g
    dp = d // g
    folded = [0] * mp
    for e, c in enumerate(p.coeffs):
        folded[(e * dp) % mp] += c
    return CycloInt.from_poly(IntPoly.of(folded), mp)


def fixed_chain_counts(spec: GroupSpec, k: int) -> list[int]:
    """Number of k-multichains fixed by g^d, for d = 0, ..., kh-1."""
    nc = ncw.build_nc(group(spec.family, spec.param))
    garr = ncw.chain_g_table(nc, nc.multichains(k))
    return fixed_counts(Cycles(garr), range(len(garr)), k * spec.coxeter_number)


def verify_csp(spec: GroupSpec, k: int) -> list[dict]:
    """Check the sieving identity: fixed chains of g^d against the exact
    evaluation of the q-Fuss-Catalan polynomial at omega^d, for every d."""
    kh = k * spec.coxeter_number
    poly = cat_poly(spec, k)
    counts = fixed_chain_counts(spec, k)
    report = []
    for d in range(kh):
        val = eval_at_root(poly, kh, d)
        expected = val.as_integer() if val.is_integer() else None
        report.append(
            {
                "d": d,
                "fixed_chains": counts[d],
                "polynomial_value": expected,
                "pass": expected == counts[d],
            }
        )
    return report
