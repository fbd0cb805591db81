import math
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import radokit.rings
import rings_reference as ref
from conftest import SMALL_PRIMES, random_prime_set, random_subring_element
from rings_reference import FACTOR_LIMIT, factorize, trial_is_prime
from radokit.rings import (
    PRIMALITY_LIMIT,
    PrimeSet,
    format_rat,
    in_scaled_subring,
    in_subring,
    is_prime,
    padic_valuation,
    parse_prime_set,
    parse_rat,
    pigeonhole_subset,
)


class TestTextualForm:
    @pytest.mark.parametrize(
        "text,value",
        [("3", F(3)), ("-3", F(-3)), ("1/2", F(1, 2)), ("-6/4", F(-3, 2)),
         (" 7/3 ", F(7, 3)), ("0", F(0))],
    )
    def test_parse(self, text, value):
        assert parse_rat(text) == value

    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "x", "1/-2", "1/2/3", "+1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    def test_digit_limit(self):
        assert parse_rat("9" * 4300 + "/" + "7" * 4300) == F(int("9" * 4300),
                                                              int("7" * 4300))
        for text in ("1" * 4301, "1/" + "3" * 4301):
            with pytest.raises(ValueError, match="^cannot read a number of "
                                                 "more than 4300 digits$"):
                parse_rat(text)
        with pytest.raises(ValueError, match="^cannot print a number of more "
                                             "than 4300 digits$"):
            format_rat(F(10**4300))
        assert len(format_rat(F(1, 10**4300 - 1))) == 2 + 4300

    def test_format_omits_unit_denominator(self):
        assert format_rat(F(5)) == "5"
        assert format_rat(F(-1, 2)) == "-1/2"

    @given(st.fractions())
    def test_round_trip(self, x):
        assert parse_rat(format_rat(x)) == x


def parse_outcome(parse, text):
    try:
        x = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(x), x


# Nd digits from other scripts, signs and separators the grammar refuses,
# whitespace around and inside, zero denominators, and the digit limit.
FIXED_TOKENS = [
    "٣", "-٣/٤", "１", "１２/８", "٣/0", "²", "½", "Ⅳ", "1e3", "0x10", "1.5",
    "+1", "1_0", "-", "", " ", "--1", "-+1", "1-", "1/-2", "1/+2", "1/",
    "/2", "-/2", "1//2", "1/2/3", "- 1", "1 /2", "1/ 2",
    " 7/3 ", "\t-6/4\n", "\u20031\u2003", "\x1c5\x85", "1\n", "\n1/2",
    "0", "-0", "00/7", "1/0", "0/0", "-3/00", "-0/0",
    "9" * 4300, "-" + "9" * 4300, "1/" + "7" * 4300,
    "9" * 4301, "-" + "9" * 4301, "1/" + "7" * 4301, "9" * 4301 + "/0",
    "0" * 4301, "x" * 4301,
]


@pytest.mark.parametrize("text", FIXED_TOKENS, ids=lambda t: ascii(t[:10]))
def test_parse_rat_matches_the_regex_reference(text):
    assert parse_outcome(parse_rat, text) == parse_outcome(ref.parse_rat, text)


@given(st.one_of(
    st.text(st.sampled_from("0123456789-/+_. \t\n٣１²x"), max_size=12),
    st.text(max_size=8),
    st.from_regex(r"\s*-?\d+(/\d+)?\s*", fullmatch=True),
))
def test_parse_rat_matches_the_regex_reference_on_any_text(text):
    assert parse_outcome(parse_rat, text) == parse_outcome(ref.parse_rat, text)


class TestIsPrime:
    def test_agrees_with_trial_division_below_a_million(self):
        # trial division by the primes up to sqrt(n), found on the way
        primes = []
        for n in range(2, 10**6):
            for p in primes:
                if p * p > n:
                    primes.append(n)
                    break
                if n % p == 0:
                    break
            else:
                primes.append(n)
        assert [n for n in range(10**6) if is_prime(n)] == primes
        rng = random.Random(5)
        for n in [*range(-3, 3000), *(rng.randrange(10**6) for _ in range(3000))]:
            assert is_prime(n) == trial_is_prime(n), n

    @pytest.mark.parametrize("n", [
        3215031751,                      # strong pseudoprime to 2, 3, 5, 7
        3825123056546413051,             # strong pseudoprime to 2 .. 23
        318665857834031151167461,        # psi_12: strong pseudoprime to 2 .. 37
        399165290221 * 798330580441,     # psi_12 again, from its factors
    ])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    # psi_k, the least strong pseudoprime to the first k prime bases, for
    # k = 1..13, and its prime factors (Jaeschke 1993; Sorenson and
    # Webster 2015)
    PSI = [
        (2047, (23, 89)),
        (1373653, (829, 1657)),
        (25326001, (2251, 11251)),
        (3215031751, (151, 751, 28351)),
        (2152302898747, (6763, 10627, 29947)),
        (3474749660383, (1303, 16927, 157543)),
        (341550071728321, (10670053, 32010157)),
        (341550071728321, (10670053, 32010157)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
        (3317044064679887385961981, (1287836182261, 2575672364521)),
    ]

    def test_base_table_is_psi(self):
        assert radokit.rings._MR_BASES == ref.MR_BASES
        assert radokit.rings._MR_PSI == tuple(psi for psi, _ in self.PSI)
        assert radokit.rings._MR_PSI[-1] == PRIMALITY_LIMIT

    @pytest.mark.parametrize("k", range(1, 14))
    def test_psi_is_a_composite_strong_pseudoprime(self, k):
        psi, factors = self.PSI[k - 1]
        assert math.prod(factors) == psi and all(1 < p < psi for p in factors)
        assert all(ref.is_strong_probable_prime(psi, a) for a in ref.MR_BASES[:k])
        if k < 13:
            assert not is_prime(psi) and not ref.thirteen_base_is_prime(psi)

    def test_agrees_with_the_thirteen_base_test(self):
        rng = random.Random(29)
        ns = [psi + e for psi, _ in self.PSI for e in (-2, -1, 1, 2)
              if psi + e < PRIMALITY_LIMIT]
        for digits in range(1, 26):
            for _ in range(40):
                n = rng.randrange(10 ** (digits - 1), min(10**digits, PRIMALITY_LIMIT))
                ns.append(n)
                # the next prime past n, and a product of two such primes
                while not ref.thirteen_base_is_prime(n):
                    n += 1
                ns.append(n)
                if n * n < PRIMALITY_LIMIT:
                    ns.append(n * n)
                    ns.append(n * next(m for m in range(n + 1, 2 * n + 1)
                                       if ref.thirteen_base_is_prime(m)))
        assert len(ns) > 2000
        for n in ns:
            assert is_prime(n) == ref.thirteen_base_is_prime(n), n

    def test_nineteen_digit_prime_is_fast(self):
        start = time.perf_counter()
        assert is_prime(10**18 + 3) and is_prime(10**18 + 9)
        assert not is_prime(10**18 + 7)
        assert time.perf_counter() - start < 0.01

    def test_largest_decided_numbers(self):
        assert PRIMALITY_LIMIT == 3317044064679887385961981
        assert not is_prime(PRIMALITY_LIMIT - 1)
        with pytest.raises(ValueError, match="too large"):
            is_prime(PRIMALITY_LIMIT)
        with pytest.raises(ValueError, match="too large"):
            PrimeSet.finite([10**30 + 57])


class TestFactorize:
    def test_one(self):
        assert factorize(1) == []

    def test_36(self):
        assert factorize(36) == [2, 2, 3, 3]

    def test_prime(self):
        assert factorize(97) == [97]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_rejects_huge(self):
        with pytest.raises(ValueError):
            factorize(FACTOR_LIMIT)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_recovers_input(self, n):
        assert math.prod(factorize(n)) == n
        assert all(is_prime(p) for p in factorize(n))


class TestPrimeSet:
    def test_kinds_and_membership(self):
        assert 2 not in PrimeSet()
        assert 2 in PrimeSet(complement=True)
        assert 3 in PrimeSet.finite([2, 3]) and 5 not in PrimeSet.finite([2, 3])
        assert 5 in PrimeSet.cofinite([2]) and 2 not in PrimeSet.cofinite([2])

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeSet.finite([4])

    def test_empty_lists_give_empty_and_all(self):
        assert PrimeSet.finite([]) == PrimeSet()
        assert PrimeSet.cofinite([]) == PrimeSet(complement=True)

    @pytest.mark.parametrize(
        "text,expected", [("", PrimeSet()), ("all", PrimeSet(complement=True)),
                          ("2,3,7", PrimeSet.finite([2, 3, 7])),
                          ("all-except:2", PrimeSet.cofinite([2]))],
        ids=["empty", "all", "finite", "cofinite"]
    )
    def test_parse(self, text, expected):
        assert parse_prime_set(text) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prime_set("2;3")


class TestSubringMembership:
    def test_dyadic(self):
        assert in_subring(F(1, 2), PrimeSet.finite([2]))

    def test_half_is_not_an_integer(self):
        assert not in_subring(F(1, 2), PrimeSet())

    def test_integers_belong_everywhere(self):
        for ps in (PrimeSet(), PrimeSet(complement=True),
                   PrimeSet.finite([3]), PrimeSet.cofinite([2])):
            assert in_subring(F(5), ps)

    def test_cofinite_excludes(self):
        assert not in_subring(F(1, 2), PrimeSet.cofinite([2]))
        assert in_subring(F(1, 3), PrimeSet.cofinite([2]))

    @given(st.fractions())
    def test_specializations(self, x):
        assert in_subring(x, PrimeSet()) == (x.denominator == 1)
        assert in_subring(x, PrimeSet(complement=True))

    def test_ring_closure(self):
        rng = random.Random(7)
        for _ in range(200):
            ps = random_prime_set(rng)
            x = random_subring_element(rng, ps)
            y = random_subring_element(rng, ps)
            assert in_subring(x + y, ps)
            assert in_subring(x * y, ps)

    def test_agrees_with_valuation_route(self):
        rng = random.Random(8)
        for _ in range(200):
            ps = random_prime_set(rng)
            num = rng.randint(-50, 50)
            den = rng.randint(1, 50)
            x = F(num, den)
            by_valuation = all(
                p in ps or padic_valuation(x, p) >= 0
                for p in set(factorize(x.denominator))
            )
            assert in_subring(x, ps) == by_valuation


class TestScaledMembership:
    def test_scaled_in(self):
        assert in_scaled_subring(F(2, 3), 2, PrimeSet.finite([3]))

    def test_scaled_out(self):
        assert not in_scaled_subring(F(1), 2, PrimeSet())

    def test_zero_always_in(self):
        assert in_scaled_subring(F(0), 5, PrimeSet())

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            in_scaled_subring(F(1), 0, PrimeSet())

    def test_matches_the_quotient(self):
        """The reduced denominator b m / gcd(a, m) against in_subring of the
        Fraction x / m and against trial division of its denominator, over
        zero, negative numerators, every kind of prime set and m > 1."""
        rng = random.Random(20261020)
        kinds = {"member": 0, "not": 0, "zero": 0, "cofinite": 0, "scaled": 0}
        for _ in range(2000):
            ps = random_prime_set(rng)
            num = rng.randint(-30, 30) if rng.random() < 0.9 else 0
            x = F(num, math.prod(rng.choices(SMALL_PRIMES, k=rng.randint(0, 3))))
            m = rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 35))
            want = in_subring(x / m, ps)
            assert want == all(p in ps for p in factorize((x / m).denominator))
            assert in_scaled_subring(x, m, ps) == want, (x, m, ps)
            kinds["member" if want else "not"] += 1
            kinds["zero"] += x == 0
            kinds["cofinite"] += ps.complement and bool(ps.primes)
            kinds["scaled"] += m > 1 and x.denominator > 1
        assert min(kinds.values()) >= 100, kinds


class TestPadicValuation:
    def test_denominator_side(self):
        assert padic_valuation(F(3, 8), 2) == -3

    def test_numerator_side(self):
        assert padic_valuation(F(12), 2) == 2

    def test_zero_is_infinite(self):
        assert padic_valuation(F(0), 5) == math.inf

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            padic_valuation(F(1), 6)

    @given(
        st.fractions(min_value=F(-100), max_value=F(100)).filter(lambda x: x != 0),
        st.fractions(min_value=F(-100), max_value=F(100)).filter(lambda x: x != 0),
        st.sampled_from([2, 3, 5]),
    )
    def test_additive_on_products(self, x, y, p):
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


class TestPigeonholeSubset:
    def test_two_ones(self):
        assert pigeonhole_subset(2, PrimeSet(), [F(1), F(1)]) == [0, 1]

    def test_residue_class_of_three(self):
        xs = [F(1), F(1), F(1), F(2), F(2)]
        H = pigeonhole_subset(3, PrimeSet(), xs)
        assert H == [0, 1, 2]
        assert sum(xs[i] for i in H) == 3

    def test_dyadic_halves(self):
        xs = [F(1, 2), F(3, 2)]
        H = pigeonhole_subset(2, PrimeSet.finite([2]), xs)
        assert H == [0, 1]
        assert in_scaled_subring(sum(xs[i] for i in H), 2, PrimeSet.finite([2]))

    def test_singleton_when_no_class_fills(self):
        # residues mod 3 are (1,1,2,2,0): no class reaches three members,
        # so the multiple-of-3 element stands alone
        xs = [F(1), F(4), F(2), F(5), F(3)]
        assert pigeonhole_subset(3, PrimeSet(), xs) == [4]

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            pigeonhole_subset(3, PrimeSet(), [F(1), F(2)])

    def test_rejects_outside_elements(self):
        with pytest.raises(ValueError):
            pigeonhole_subset(2, PrimeSet(), [F(1, 2), F(1)])

    def test_outside_element_named_by_its_1_based_position(self):
        with pytest.raises(ValueError, match=r"^element 2 \(1/3\) is outside "
                                             r"the subring$"):
            pigeonhole_subset(2, PrimeSet.finite([2]), [F(1, 2), F(1, 3), F(1, 5)])

    def test_property_sum_is_scaled_member(self):
        rng = random.Random(9)
        for _ in range(100):
            m = rng.randint(1, 6)
            ps = random_prime_set(rng)
            xs = [random_subring_element(rng, ps)
                  for _ in range((m - 1) ** 2 + 1)]
            H = pigeonhole_subset(m, ps, xs)
            assert H
            assert in_scaled_subring(sum(xs[i] for i in H), m, ps)


def outside_element(rng, primes):
    """A rational outside the subring (denominator a prime not in the set),
    or None when the set holds every small prime."""
    candidates = [p for p in SMALL_PRIMES if p not in primes]
    if not candidates:
        return None
    p = rng.choice(candidates)
    return F(rng.randint(-9, 9) * p + rng.choice((1, -1)), p)


def pigeonhole_outcome(pigeonhole, m, primes, xs):
    try:
        return pigeonhole(m, primes, xs)
    except ValueError as exc:
        return str(exc)


def test_pigeonhole_matches_the_per_element_reference():
    """Same indices, or the same error but for the element's position,
    which the reference gives 0-based; over repeated objects, equal but
    distinct values and outside elements at random positions."""
    rng = random.Random(19102026)
    kinds = {"indices": 0, "outside": 0, "short": 0}
    for _ in range(1000):
        m = rng.randint(1, 8)
        ps = random_prime_set(rng)
        pool = [random_subring_element(rng, ps) for _ in range(rng.randint(1, 5))]
        length = (m - 1) ** 2 + 1 + rng.randint(-1 if m > 1 else 0, 3)
        xs = []
        for _ in range(length):
            roll = rng.random()
            if roll < 0.4:
                xs.append(rng.choice(pool))
            elif roll < 0.6:
                x = rng.choice(pool)
                xs.append(F(x.numerator, x.denominator))
            else:
                xs.append(random_subring_element(rng, ps))
        if xs and rng.random() < 0.35:
            for _ in range(rng.randint(1, 3)):
                x = outside_element(rng, ps)
                if x is not None:
                    xs[rng.randrange(len(xs))] = x
        want = pigeonhole_outcome(ref.pigeonhole_subset, m, ps, xs)
        if isinstance(want, str):
            want = re.sub(r"^element (\d+)", lambda g: f"element {int(g[1]) + 1}",
                          want)
            kinds["outside" if want.startswith("element") else "short"] += 1
        else:
            kinds["indices"] += 1
        assert pigeonhole_outcome(pigeonhole_subset, m, ps, xs) == want, (m, ps, xs)
    assert min(kinds.values()) >= 100, kinds
