"""Exact-arithmetic substrate checks against independent oracles."""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from distchrom.algebra import (
    InvalidParameters,
    binomial,
    field_new,
    is_prime_power,
    least_prime_divisor,
    partition_count,
)

SUPPORTED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def pascal_oracle(n, k):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if 0 <= k <= n else 0


def partitions_oracle(n):
    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(count(remaining - first, first) for first in range(min(remaining, largest), 0, -1))

    return count(n, n)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms(q):
    f = field_new(q)
    assert f.q == q
    elements = list(f.elements)
    for a in elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
    for a in elements:
        for b in elements:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elements:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elements[1:]:
        assert f.mul(a, f.inv(a)) == 1
    image = elements
    for _ in range(f.n):
        image = [f.frobenius[x] for x in image]
    assert image == elements


def test_prime_field_example():
    f = field_new(5)
    assert f.mul(2, 3) == 1
    assert f.add(4, 3) == 2


def test_gf4_generator_relation():
    f = field_new(4)
    # element 2 encodes the generator x; under x^2+x+1, x*x = x+1 (element 3)
    assert f.mul(2, 2) == 3
    assert f.add(2, 3) == 1


def test_unsupported_orders():
    for q in (0, 1, 6, 10, 12, 14, 15, 17, 32):
        with pytest.raises(InvalidParameters, match="is not a prime power <= 16"):
            field_new(q)


def test_is_prime_power():
    assert is_prime_power(16) == (2, 4)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(6) is None
    assert is_prime_power(1) is None


@pytest.mark.parametrize("n,k", [(6, 2), (9, 4), (4, 0), (5, 7), (12, 6)])
def test_binomial_against_pascal(n, k):
    assert binomial(n, k) == pascal_oracle(n, k)


def test_binomial_examples():
    assert binomial(6, 2) == 15
    assert binomial(9, 4) == 126
    assert binomial(4, 0) == 1
    assert binomial(4, 6) == 0
    assert binomial(4, -2) == 0
    with pytest.raises(InvalidParameters, match="binomial requires n >= 0"):
        binomial(-1, 0)


def test_partition_count_against_enumeration():
    for n in range(21):
        assert partition_count(n) == partitions_oracle(n)


def test_partition_examples():
    assert partition_count(0) == 1
    assert partition_count(2) == 2
    assert partition_count(6) == 11
    assert partition_count(100) == 190569292
    with pytest.raises(InvalidParameters, match="partition_count requires 0 <= n <= 10000"):
        partition_count(-1)
    with pytest.raises(InvalidParameters, match="partition_count requires 0 <= n <= 10000"):
        partition_count(10_001)


def test_least_prime_divisor():
    assert least_prime_divisor(336) == 2
    assert least_prime_divisor(5616) == 2
    assert least_prime_divisor(15) == 3
    assert least_prime_divisor(49) == 7
    assert least_prime_divisor(97) == 97
    with pytest.raises(InvalidParameters, match="least_prime_divisor requires n >= 2"):
        least_prime_divisor(1)


@given(
    a=st.integers(-50, 50),
    b=st.integers(1, 50),
    c=st.integers(-50, 50),
    d=st.integers(1, 50),
)
def test_rational_round_trip(a, b, c, d):
    x = Fraction(a, b)
    y = Fraction(c, d)
    assert (x + y) - y == x
    assert x.denominator > 0


def test_one_parameter_error_class():
    import importlib
    import pkgutil

    import distchrom
    from distchrom import algebra, coloring, families, motion, permgroup

    for module in (coloring, families, motion, permgroup):
        assert module.InvalidParameters is algebra.InvalidParameters
    # every exception name in the package, aliases included, is one of these
    kept = {"InvalidParameters", "TooLarge", "SearchTimeout", "Infeasible", "ExhaustedTries"}
    for info in pkgutil.iter_modules(distchrom.__path__):
        module = importlib.import_module(f"distchrom.{info.name}")
        names = {
            name
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and issubclass(obj, Exception)
            and obj.__module__.startswith("distchrom")
        }
        assert names <= kept, (module.__name__, names - kept)


def test_no_assert_in_library():
    # python -O strips assert statements, so no check in the package may rest on one
    import ast
    from pathlib import Path

    import distchrom

    sources = sorted(Path(distchrom.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)
