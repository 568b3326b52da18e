"""Sieve utilities against brute-force factorization oracles."""
import math

from zetaprog.sieves import mobius_table, primes_in, smallest_prime_factor


def _factor(n):
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


def _mu(n):
    if n == 1:
        return 1
    fs = _factor(n)
    if any(e > 1 for e in fs.values()):
        return 0
    return -1 if len(fs) % 2 else 1


def test_mobius_table_against_brute_force():
    mu = mobius_table(500)
    for n in range(1, 501):
        assert mu[n] == _mu(n)


def test_primes_in():
    assert primes_in(10, 50) == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert primes_in(2, 2) == [2]
    assert primes_in(24, 28) == []
    assert primes_in(50, 10) == []
    assert len(primes_in(2, 10 ** 5)) == 9592  # pi(10^5)
    assert primes_in(1000.5, 1100) == [n for n in range(1001, 1101) if _factor(n) == {n: 1}]


def test_smallest_prime_factor():
    assert smallest_prime_factor(97) == 97
    assert smallest_prime_factor(98) == 2
    assert smallest_prime_factor(99) == 3
    assert smallest_prime_factor(2 ** 20) == 2
    big = 1000003 * 1000033
    assert smallest_prime_factor(big) == 1000003


def test_smallest_prime_factor_rejects_units():
    import pytest
    with pytest.raises(ValueError):
        smallest_prime_factor(1)
