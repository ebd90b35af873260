"""Rank-one intertwiner calculus and the finite character-sum mechanism.

The 2x2 J-matrices between the two Borel directions, their composite scalar

    q^{-1} + (1 - q^{-1})^2 / ((1 - z)(1 - z^{-1})),       q = v^2,

the reducibility points it forces, and exact character sums over the unit
group of Z/p^k (the residue-field stand-in for the unit-integral vanishing).
"""
from __future__ import annotations

import math

from .label_params import ParamPair
from .mu_function import PoleZeroProfile, q_from_poles, ratio_profile
from .qfield import VRat, pdiv_exact, pdivmod
from .root_data import SizeLimitError
from .xlaurent import L_ONE, Laurent, LaurentRatio

Q_INV = VRat.v_pow(-2)

DIRECTIONS = ("P->Pop", "Pop->P")

MODULUS_CAP = 10 ** 4
# the audit over all characters runs phi(M) divisions by Phi_phi; on a
# 2-core machine the worst accepted one, M = 479 (phi 478), takes about 3 s
# and M = 983 would take 23 s
AUDIT_PHI_CAP = 500


class JMatrix:
    """2x2 intertwiner matrix; entries are ratios in z over Q[v, v^-1]."""

    __slots__ = ("direction", "entries")

    def __init__(self, direction: str, entries):
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    def __setattr__(self, *a):
        raise AttributeError("JMatrix is immutable")

    def entry(self, i: int, j: int) -> LaurentRatio:
        return self.entries[i][j]

    def to_json(self) -> dict:
        return {"direction": self.direction,
                "entries": [[e.to_str("z") for e in row] for row in self.entries]}

    def __repr__(self):
        rows = "; ".join(", ".join(e.to_str("z") for e in row) for row in self.entries)
        return f"JMatrix({self.direction}: {rows})"


def j_matrix(direction: str) -> JMatrix:
    """The two displayed rank-one intertwiner matrices (unramified case)."""
    one = LaurentRatio.const(1)
    qi = LaurentRatio.const(Q_INV)
    b = Laurent.const(VRat(1) - Q_INV)
    z, zi = Laurent.x_pow(1), Laurent.x_pow(-1)
    if direction == "P->Pop":
        rows = ((qi, LaurentRatio(b, L_ONE - z)),
                (LaurentRatio(b, zi - L_ONE), one))
    elif direction == "Pop->P":
        rows = ((one, LaurentRatio(b, z - L_ONE)),
                (LaurentRatio(b, L_ONE - zi), qi))
    else:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    return JMatrix(direction, rows)


def compose(a: JMatrix, b: JMatrix):
    """Matrix product a*b as a plain 2x2 tuple of rational functions."""
    return tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in (0, 1)),
                  LaurentRatio.const(0))
              for j in (0, 1))
        for i in (0, 1))


def composite_scalar() -> LaurentRatio:
    """q^{-1} + (1-q^{-1})^2 / ((1-z)(1-z^{-1})), as written."""
    z, zi = Laurent.x_pow(1), Laurent.x_pow(-1)
    b = VRat(1) - Q_INV
    return (LaurentRatio.const(Q_INV)
            + LaurentRatio(Laurent.const(b * b), (L_ONE - z) * (L_ONE - zi)))


def is_scalar_identity(mat, s: LaurentRatio) -> bool:
    return (mat[0][0] == s and mat[1][1] == s
            and mat[0][1].is_zero() and mat[1][0].is_zero())


def reciprocal_scalar_profile() -> PoleZeroProfile:
    """Pole/zero profile of 1/composite_scalar in the z coordinate."""
    s = composite_scalar()
    return ratio_profile(s.den, s.num)


def reducibility_points() -> ParamPair:
    """Parameters forced by the composite scalar: computed, not quoted."""
    return q_from_poles(reciprocal_scalar_profile())


def _factor_prime_power(m: int):
    for p in range(2, m + 1):
        if p * p > m:
            p = m
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError("modulus must be a prime power")
            return p, k
    raise ValueError("modulus must be a prime power")


def _units(m: int):
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


def _mult_order(g: int, m: int, phi: int) -> int:
    order = phi
    n = phi
    for p in range(2, n + 1):
        while n % p == 0:
            n //= p
            while order % p == 0 and pow(g, order // p, m) == 1:
                order //= p
    return order


class FiniteCharacter:
    """Character of (Z/p^k)^x with values recorded as exponents of zeta_phi."""

    __slots__ = ("modulus", "phi", "generator", "index", "exps")

    def __init__(self, modulus: int, index: int = 0):
        if modulus > MODULUS_CAP:
            raise SizeLimitError(f"modulus {modulus} exceeds {MODULUS_CAP}")
        p, k = _factor_prime_power(modulus)
        if p == 2 and k > 2:
            raise ValueError(f"unit group mod {modulus} is not cyclic")
        units = _units(modulus)
        phi = len(units)
        gen = next(g for g in units if _mult_order(g, modulus, phi) == phi)
        index %= phi if phi else 1
        exps = {}
        u, e = 1, 0
        for _ in range(phi):
            exps[u] = e
            u = u * gen % modulus
            e = (e + index) % phi
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, *a):
        raise AttributeError("FiniteCharacter is immutable")

    def exponent(self, u: int) -> int:
        """chi(u) = zeta_phi^exponent(u)."""
        return self.exps[u % self.modulus]

    def is_trivial(self) -> bool:
        return self.index == 0

    def __repr__(self):
        return f"FiniteCharacter(mod {self.modulus}, index {self.index}/{self.phi})"


_cyclo_cache: dict = {1: [-1, 1]}


def cyclotomic(n: int) -> list:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = pdiv_exact(num, cyclotomic(d))
    _cyclo_cache[n] = list(num)
    return _cyclo_cache[n]


def char_sum(chi: FiniteCharacter) -> int:
    """Exact sum of chi over the units, reduced in Z[zeta_phi]."""
    counts = [0] * chi.phi
    for e in chi.exps.values():
        counts[e] += 1
    _, rem = pdivmod(counts, cyclotomic(chi.phi))
    if len(rem) > 1:
        raise ArithmeticError("character sum is not a rational integer")
    return rem[0] if rem else 0


def ramified_rule(chi: FiniteCharacter) -> str:
    """Which side of the mu-support dichotomy a ramified character lands on."""
    if chi.is_trivial():
        return "alpha in Sigma_{O,mu}"
    return "alpha not in Sigma_{O,mu}"
