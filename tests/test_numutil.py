import heapq
import random

import pytest

from apsumset.numutil import (
    PrimeSet,
    factor_over,
    ilog,
    iroot,
    is_prime,
    minimal_power_base,
    power_exponent,
    powers_below,
    smooth_buckets,
)


def is_smooth_by_trial_division(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def smooth_by_heap(primes, limit):
    """Every integer in [1, limit] whose prime factors lie in `primes`, ascending.

    A heap of products: v * p is pushed only for p no smaller than the
    prime that formed v, so each smooth number is formed once, from its
    factors in ascending order, and popped once.
    """
    primes = tuple(primes)
    out, heap = [], [(1, 0)]
    while heap:
        v, i = heapq.heappop(heap)
        out.append(v)
        for j in range(i, len(primes)):
            if v * primes[j] <= limit:
                heapq.heappush(heap, (v * primes[j], j))
    return out


def smooth_union(primes, limit):
    """The values of every `smooth_buckets` bucket, sorted, duplicates kept."""
    return sorted(v for bucket in smooth_buckets(primes, limit).values() for v in bucket)


class TestPowerExponent:
    def test_one_is_zeroth_power(self):
        assert power_exponent(1, 3) == 0

    def test_3_pow_12(self):
        # 3^12 = 531441 by repeated multiplication
        n = 1
        for _ in range(12):
            n *= 3
        assert n == 531441
        assert power_exponent(531441, 3) == 12

    def test_3_pow_12_plus_one(self):
        assert power_exponent(531442, 3) is None

    def test_round_trip(self):
        for base in range(2, 11):
            for e in range(0, 65):
                assert power_exponent(base**e, base) == e

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            power_exponent(8, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            power_exponent(0, 2)


class TestOrdP:
    """The p-adic valuation, read from `factor_over` with a single prime."""

    def test_48(self):
        assert factor_over(48, (2,)) == ({2: 4}, 3)

    def test_coprime(self):
        assert factor_over(7, (2,)) == ({2: 0}, 7)

    def test_3_pow_12(self):
        assert factor_over(531441, (3,)) == ({3: 12}, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_over(0, (2,))

    def test_ord_of_scaled_coprime(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11])
            a = rng.randrange(0, 20)
            m = rng.randrange(1, 10**6)
            while m % p == 0:
                m += 1
            assert factor_over(p**a * m, (p,)) == ({p: a}, m)


class TestSmoothEnumerate:
    """The smooth numbers as the sorted union of the buckets."""

    def test_23_up_to_10(self):
        assert smooth_union(PrimeSet((2, 3)), 10) == [1, 2, 3, 4, 6, 8, 9]

    def test_single_prime_limit_one(self):
        assert smooth_union(PrimeSet((2,)), 1) == [1]

    def test_deweger_primes_up_to_100(self):
        primes = PrimeSet((2, 3, 5, 7, 11, 13))
        got = smooth_union(primes, 100)
        oracle = [n for n in range(1, 101) if is_smooth_by_trial_division(n, primes)]
        assert got == oracle
        assert len(got) == 62

    def test_members_are_smooth_and_bounded(self):
        primes = PrimeSet((2, 5, 11))
        for n in smooth_union(primes, 10**6):
            assert n <= 10**6
            assert is_smooth_by_trial_division(n, primes)

    def test_monotone_in_limit_and_primes(self):
        small = smooth_union(PrimeSet((2, 3)), 500)
        large = smooth_union(PrimeSet((2, 3)), 5000)
        wider = smooth_union(PrimeSet((2, 3, 5)), 500)
        assert len(small) <= len(large)
        assert len(small) <= len(wider)
        assert set(small) <= set(large)
        assert set(small) <= set(wider)

    def test_sorted_no_duplicates(self):
        got = smooth_union(PrimeSet((2, 3, 5)), 10**4)
        assert got == sorted(set(got))

    @pytest.mark.parametrize("primes", [(2,), (3, 7), (2, 3, 5, 7, 11, 13)], ids=str)
    def test_heap_oracle_is_trial_division(self, primes):
        assert smooth_by_heap(primes, 3000) == [n for n in range(1, 3001) if is_smooth_by_trial_division(n, primes)]


class TestSmoothBuckets:
    @pytest.mark.parametrize("primes", [(2,), (3, 5, 7), (2, 3), (2, 3, 5, 7, 11, 13)], ids=str)
    @pytest.mark.parametrize("limit", [1, 2, 10**6, 10**12])
    def test_buckets_are_the_trial_division_masks(self, primes, limit):
        oracle = smooth_by_heap(primes, limit)
        assert smooth_union(PrimeSet(primes), limit) == oracle
        want = {}
        for v in oracle:
            mask = sum(1 << i for i, p in enumerate(primes) if v % p == 0)
            want.setdefault(mask, []).append(v)
        assert smooth_buckets(PrimeSet(primes), limit) == want

    def test_empty_support_is_one(self):
        for primes in ((2,), (3, 5, 7), (2, 3, 5, 7, 11, 13)):
            for limit in (1, 2, 10**6):
                assert smooth_buckets(primes, limit)[0] == [1]

    @pytest.mark.parametrize("enumerate_", [smooth_buckets])
    def test_rejects_limit_below_one(self, enumerate_):
        with pytest.raises(ValueError, match="limit must be >= 1, got 0"):
            enumerate_((2, 3), 0)


class TestPrimeSet:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeSet((2, 3, 9))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PrimeSet((3, 2))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            PrimeSet((2, 2, 3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="PrimeSet must be nonempty"):
            PrimeSet(())


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    # 399165290221 * 798330580441, a strong pseudoprime to each of the first 12 prime bases
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961980)  # the bound is exclusive
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    for n in (0, 1, -7):
        assert is_prime(n) is False


def test_iroot_matches_definition():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(1, 10**18)
        k = rng.randrange(1, 12)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
    assert iroot(0, 3) == 0


@pytest.mark.parametrize("n", [1, 2, 2**4000 + 1], ids=["1", "2", "2^4000+1"])
def test_iroot_first_root_is_n(n):
    assert iroot(n, 1) == n


@pytest.mark.parametrize("n, k", [(-1, 2), (5, 0)])
def test_iroot_refuses(n, k):
    with pytest.raises(ValueError, match="iroot requires n >= 0 and k >= 1"):
        iroot(n, k)


def test_ilog():
    assert ilog(1, 2) == 0
    assert ilog(8, 2) == 3
    assert ilog(9, 2) == 3
    assert ilog(10**12, 10) == 12


def brute_ilog(n, base):
    e = 0
    while base ** (e + 1) <= n:
        e += 1
    return e


@pytest.mark.parametrize("base", [2, 3, 10])
def test_ilog_at_and_below_powers(base):
    for e in range(80):
        n = base**e
        assert ilog(n, base) == brute_ilog(n, base) == e
        if n > 1:
            assert ilog(n - 1, base) == brute_ilog(n - 1, base) == e - 1
    assert ilog(2**64 + 1, 2) == brute_ilog(2**64 + 1, 2) == 64


@pytest.mark.parametrize("n, base", [(0, 2), (5, 1)])
def test_ilog_refuses(n, base):
    with pytest.raises(ValueError, match="ilog requires n >= 1 and base >= 2"):
        ilog(n, base)


@pytest.mark.parametrize("base", [2, 3, 10, 97])
def test_powers_below(base):
    for limit in (0, 1, 2, base - 1, base, base + 1, base**5, base**5 + 1, 10**30):
        assert powers_below(base, limit) == [base**e for e in range(200) if base**e < limit]


def brute_power_base(n, g_max):
    """The least h <= g_max with n = h^k, and that k, by trial division; None if there is none."""
    for h in range(2, g_max + 1):
        m, k = n, 0
        while m % h == 0:
            m //= h
            k += 1
        if m == 1:
            return h, k
    return None


class TestMinimalPowerBase:
    def test_matches_brute_powers(self):
        for g in range(2, 61):
            for e in range(1, 13):
                assert minimal_power_base(g**e) == brute_power_base(g**e, g), (g, e)

    def test_non_powers(self):
        # every perfect power below 61^2 has a base of at most 60
        for n in range(2, 61**2):
            if brute_power_base(n, min(n, 60)) in (None, (n, 1)):
                assert minimal_power_base(n) == (n, 1), n
        # one more than a perfect power other than 8 is never one (Mihailescu)
        for g, e in ((2, 64), (3, 40), (10, 30), (59, 12)):
            assert minimal_power_base(g**e + 1) == (g**e + 1, 1)

    def test_large_powers(self):
        assert minimal_power_base(2**64) == (2, 64)
        assert minimal_power_base(36**5) == (6, 10)
        assert minimal_power_base(12**31) == (12, 31)

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_refuses_below_two(self, n):
        with pytest.raises(ValueError, match="n must be >= 2"):
            minimal_power_base(n)


def test_factor_over():
    exps, cof = factor_over(48, (2, 3))
    assert exps == {2: 4, 3: 1} and cof == 1
    exps, cof = factor_over(40, (2, 3))
    assert exps == {2: 3, 3: 0} and cof == 5
