"""Exact arbitrary-precision integer utilities shared by all solvers.

Everything here works on Python ints only; no floating point enters any
arithmetic path.  This module is the one home of the three primitives the
rest of the package is built on:

- the power ladder (`powers_below`): every base^e below a limit, from
  which S_{a,b} and the progression join are built;
- perfect-power roots (`iroot`, `minimal_power_base`), which decide
  multiplicative dependence a^c = b^d and the rows b^m of the registry;
- smooth numbers (`smooth_buckets`), grouped by prime support for the
  de Weger solver.
"""

from __future__ import annotations

from typing import Iterable

# The first 13 primes as Miller-Rabin witnesses are proven deterministic for
# n < PRIME_LIMIT (the first 12 only below 318665857834031151167461, a
# strong pseudoprime to all of them); is_prime also trial-divides by them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3317044064679887385961981 (about 3.3 * 10^24).

    Larger n raise ValueError rather than risk a wrong answer.
    """
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality of {n} is not decided here (proven only below {PRIME_LIMIT})")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power_exponent(n: int, base: int) -> int | None:
    """Return e with base**e == n exactly, or None if n is not a power of base.

    Computed by repeated division so the answer is exact for any size of n.
    power_exponent(1, b) == 0 for every base.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    e = 0
    while n % base == 0:
        n //= base
        e += 1
    return e if n == 1 else None


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) computed exactly by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)  # >= n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def minimal_power_base(n: int) -> tuple[int, int]:
    """Smallest g with g^e = n (e maximal); returns (g, e)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    for e in range(n.bit_length(), 1, -1):
        g = iroot(n, e)
        if g >= 2 and g**e == n:
            return g, e
    return n, 1


def powers_below(base: int, limit: int) -> list[int]:
    """Every power base^e < limit, ascending."""
    out, power = [], 1
    while power < limit:
        out.append(power)
        power *= base
    return out


def ilog(n: int, base: int) -> int:
    """Greatest e with base**e <= n, read off the power ladder below n + 1."""
    if n < 1 or base < 2:
        raise ValueError("ilog requires n >= 1 and base >= 2")
    return len(powers_below(base, n + 1)) - 1


class PrimeSet(tuple):
    """A strictly increasing tuple of verified primes."""

    __slots__ = ()

    def __new__(cls, primes: Iterable[int]) -> PrimeSet:
        primes = tuple(primes)
        if not primes:
            raise ValueError("PrimeSet must be nonempty")
        prev = 1
        for p in primes:
            if p <= prev:
                raise ValueError(f"primes must be strictly increasing, got {primes}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
        return super().__new__(cls, primes)


def smooth_buckets(primes: PrimeSet | Iterable[int], limit: int) -> dict[int, list[int]]:
    """The integers in [1, limit] whose prime factors all lie in `primes`, keyed by support.

    Bit i of a key is set iff the i-th prime divides the value; each bucket
    is sorted and no key maps to an empty one.  Built prime by prime from
    {0: [1]}: every bucket present so far spawns the bucket with bit i set,
    holding its values times p^e for e >= 1 up to `limit`.  So each smooth
    number is formed once, directly in its own bucket, with no division.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    buckets = {0: [1]}
    for i, p in enumerate(primes):
        for mask, values in list(buckets.items()):
            grown = []
            for v in values:  # ascending, so the first v with v * p > limit ends the bucket
                v *= p
                if v > limit:
                    break
                while v <= limit:
                    grown.append(v)
                    v *= p
            if grown:
                grown.sort()
                buckets[mask | 1 << i] = grown
    return buckets


def factor_over(n: int, primes: PrimeSet | Iterable[int]) -> tuple[dict[int, int], int]:
    """Split n as (prod p^e over `primes`) * cofactor; returns ({p: e}, cofactor)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    exps: dict[int, int] = {}
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps[p] = e
    return exps, n
