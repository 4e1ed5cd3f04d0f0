"""Exact arithmetic substrate: small finite fields, binomials, partitions, primes.

Everything here is integer-exact.  Rational values throughout the package use
``fractions.Fraction``, so no verdict ever depends on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "FiniteField",
    "InvalidParameters",
    "binomial",
    "field_new",
    "is_prime",
    "is_prime_power",
    "least_prime_divisor",
    "partition_count",
]

MAX_FIELD_ORDER = 16
MAX_PARTITION_ARG = 10_000


class InvalidParameters(ValueError):
    """An argument lies outside the domain the function is defined on."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k, or None if n is not a prime power."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return (n, 1)


# Reduction rules x**n = r_0 + r_1*x + ... for the fixed irreducible polynomials:
# GF(4): x^2+x+1, GF(8): x^3+x+1, GF(9): x^2+1, GF(16): x^4+x+1.  Fixing these
# makes element ids (base-p digit encodings) reproducible run to run.
_REDUCTION = {
    4: (1, 1),
    8: (1, 1, 0),
    9: (2, 0),
    16: (1, 1, 0, 0),
}


@dataclass(frozen=True)
class FiniteField:
    """Table-backed field of order q = p**n with dense element ids 0..q-1.

    Id 0 is the zero element and id 1 is the one element.  For extension
    fields an element id is the base-p encoding of its coefficient vector,
    low-order coefficient in the least significant digit.
    """

    q: int
    p: int
    n: int
    add_table: tuple[tuple[int, ...], ...] = field(repr=False)
    mul_table: tuple[tuple[int, ...], ...] = field(repr=False)
    inv_table: tuple[int, ...] = field(repr=False)
    frobenius: tuple[int, ...] = field(repr=False)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        row = self.add_table[a]
        return row.index(0)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("finite field inverse of zero")
        return self.inv_table[a]

    @property
    def elements(self) -> range:
        return range(self.q)


def _vec_of(a: int, p: int, n: int) -> list[int]:
    digits = []
    for _ in range(n):
        digits.append(a % p)
        a //= p
    return digits


def _id_of(vec: list[int], p: int) -> int:
    out = 0
    for c in reversed(vec):
        out = out * p + c
    return out


def _ext_mul(a: int, b: int, p: int, n: int, reduction: tuple[int, ...]) -> int:
    va, vb = _vec_of(a, p, n), _vec_of(b, p, n)
    prod = [0] * (2 * n - 1)
    for i, ca in enumerate(va):
        if ca == 0:
            continue
        for j, cb in enumerate(vb):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    for deg in range(2 * n - 2, n - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for i, r in enumerate(reduction):
                prod[deg - n + i] = (prod[deg - n + i] + c * r) % p
    return _id_of(prod[:n], p)


def _validate_field(f: FiniteField) -> None:
    q = f.q
    rng = range(q)

    def require(ok: bool, law: str) -> None:
        if not ok:
            raise ArithmeticError(f"GF({q}) tables violate {law}")

    require(all(f.add(a, 0) == a and f.mul(a, 1) == a for a in rng), "the identities")
    require(
        all(f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a) for a in rng for b in rng),
        "commutativity",
    )
    for a in rng:
        for b in rng:
            for c in rng:
                require(f.add(f.add(a, b), c) == f.add(a, f.add(b, c)), "associativity of +")
                require(f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c)), "associativity of *")
                require(f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c)), "distributivity")
    for a in range(1, q):
        require(f.mul(a, f.inv_table[a]) == 1, "inverses")
    x = list(rng)
    for _ in range(f.n):
        x = [f.frobenius[v] for v in x]
    require(x == list(rng), "frobenius iterated n times is the identity")


@lru_cache(maxsize=None)
def field_new(q: int) -> FiniteField:
    """Construct (and exhaustively validate) the field of order q <= 16."""
    pk = is_prime_power(q)
    if pk is None or q > MAX_FIELD_ORDER:
        raise InvalidParameters(f"q={q} is not a prime power <= {MAX_FIELD_ORDER}")
    p, n = pk
    if n == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        inv = tuple(0 if a == 0 else pow(a, p - 2, p) for a in range(p))
        frob = tuple(range(p))
    else:
        reduction = _REDUCTION[q]
        add = tuple(
            tuple(
                _id_of([(x + y) % p for x, y in zip(_vec_of(a, p, n), _vec_of(b, p, n))], p)
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(tuple(_ext_mul(a, b, p, n, reduction) for b in range(q)) for a in range(q))
        inv_list = [0] * q
        for a in range(1, q):
            inv_list[a] = mul[a].index(1)
        inv = tuple(inv_list)
        frob_list = [0] * q
        for a in range(q):
            out = a
            for _ in range(p - 1):
                out = mul[out][a]
            frob_list[a] = out
        frob = tuple(frob_list)
    f = FiniteField(q=q, p=p, n=n, add_table=add, mul_table=mul, inv_table=inv, frobenius=frob)
    _validate_field(f)
    return f


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; zero when k > n or k < 0."""
    if n < 0:
        raise InvalidParameters("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    import math

    return math.comb(n, k)


_partition_cache: list[int] = [1]


def partition_count(n: int) -> int:
    """Number of integer partitions of n, by the pentagonal-number recurrence."""
    if n < 0 or n > MAX_PARTITION_ARG:
        raise InvalidParameters(f"partition_count requires 0 <= n <= {MAX_PARTITION_ARG}")
    while len(_partition_cache) <= n:
        m = len(_partition_cache)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * _partition_cache[m - g1]
            if g2 <= m:
                total += sign * _partition_cache[m - g2]
            k += 1
        _partition_cache.append(total)
    return _partition_cache[n]


def least_prime_divisor(n: int) -> int:
    """Smallest prime dividing n (trial division; n arises as a group order)."""
    if n < 2:
        raise InvalidParameters("least_prime_divisor requires n >= 2")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n
