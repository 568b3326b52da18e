"""Small integer sieves: primes by Eratosthenes, and the tables of the
multiplicative functions on squarefree products (the Moebius function of the
mollifier, the resonator's coefficients) that one product sieve builds."""
import math

import numpy as np


def primes_in(lo: float, hi: float) -> list:
    """All primes p with lo <= p <= hi."""
    top = int(np.floor(hi))
    if top < 2:
        return []
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    start = max(2, int(np.ceil(lo)))
    return (np.flatnonzero(sieve[start:]) + start).tolist()


def squarefree_products(limit: int, primes, factors) -> np.ndarray:
    """f(n) for 0..limit: on the squarefree products of primes (ascending, each
    <= limit) the product over n's primes, in ascending order, of factors (one
    per prime, or one for all); f(1) = 1 and 0 elsewhere."""
    f = np.zeros(limit + 1)
    f[1] = 1.0
    primes = np.asarray(primes, dtype=np.int64)
    factors = np.broadcast_to(np.asarray(factors, dtype=float), primes.shape)
    # past limit / primes[0], a prime extends only the product 1
    k = int(np.searchsorted(primes, limit // primes[0], side="right")) if len(primes) else 0
    for p, fp in zip(primes[:k].tolist(), factors[:k]):
        ms = np.flatnonzero(f[:limit // p + 1])
        f[p * ms] = f[ms] * fp
    f[primes[k:]] = factors[k:]
    return f


def mobius_table(limit: int) -> np.ndarray:
    """mu(n) for 0..limit, as floats."""
    return squarefree_products(limit, primes_in(2, limit), -1.0)


def smallest_prime_factor(n: int) -> int:
    """Smallest prime factor of n >= 2 by trial division (fine for n <= ~1e12)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n
