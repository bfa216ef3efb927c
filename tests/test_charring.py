"""Tests for character arithmetic."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from wonderco import charring
from wonderco.charring import (
    Character,
    direct_sum_character,
    weyl_character,
)
from wonderco.rootsys import (
    Weight,
    act,
    build_root_system,
    coset_reps,
    half_sum_positive,
)
from weyl_descent import dominant_conjugate, weight_to_root, weyl_dimension, weyl_element

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
C3 = build_root_system("C", 3)
A2xA2 = build_root_system("A2xA2")
B2xA1 = build_root_system("B2xA1")
A1xG2 = build_root_system("A1xG2")
A1xA1xA1 = build_root_system("A1xA1xA1")


# ---------------------------------------------------------------------------
# oracles

def kostant_partition(system, vec):
    """Number of ways to write vec as a nonnegative integer combination of
    positive roots, by direct recursion."""
    roots = tuple(r.coords for r in system.positive_roots)
    n = system.rank

    @lru_cache(maxsize=None)
    def count(v, idx):
        if not any(v):
            return 1
        if idx == len(roots):
            return 0
        r = roots[idx]
        total = 0
        k = 0
        while all(v[i] - k * r[i] >= 0 for i in range(n)):
            total += count(tuple(v[i] - k * r[i] for i in range(n)), idx + 1)
            k += 1
        return total

    if any(x < 0 or (isinstance(x, Fraction) and x.denominator != 1) for x in vec):
        return 0
    return count(tuple(int(x) for x in vec), 0)


def kostant_character(system, lam):
    """Weight multiplicities via the alternating partition-function sum."""
    rho = half_sum_positive(system)
    elements = coset_reps(system, frozenset())
    lowest = -dominant_conjugate(system, -lam)[0]
    box = weight_to_root(system, lam - lowest)
    assert all(c.denominator == 1 for c in box)
    terms = {}
    for combo in itertools.product(*(range(int(c) + 1) for c in box)):
        shift = Weight(
            tuple(
                sum(system.cartan[i][j] * combo[j] for j in range(system.rank))
                for i in range(system.rank)
            )
        )
        mu = lam - shift
        m = 0
        for w in elements:
            v = weight_to_root(system, act(w, lam + rho) - (mu + rho))
            p = kostant_partition(system, v)
            if p:
                m += (-1) ** len(w.word) * p
        if m:
            terms[mu] = m
    return Character(terms)


def negated(ch):
    """The terms of the dual module's character: every weight negated."""
    return {-w: m for w, m in ch.terms.items()}


# ---------------------------------------------------------------------------
# Character records

class TestCharacter:
    def test_zero_multiplicities_dropped(self):
        c = Character({Weight((1, 0)): 2, Weight((0, 1)): 0})
        assert c.terms == {Weight((1, 0)): 2}

    def test_pairs_build_the_same_record(self):
        pairs = [(Weight((1, 0)), 2), (Weight((0, 1)), 0), (Weight((0, 0)), -1)]
        c = Character(iter(pairs))
        assert c == Character(dict(pairs))
        assert c.terms == {Weight((1, 0)): 2, Weight((0, 0)): -1}

    def test_not_hashable(self):
        # equality compares terms, and a read-only view of them has no
        # hash either, so a character is never a dict key
        with pytest.raises(TypeError):
            hash(Character())


# ---------------------------------------------------------------------------
# irreducible characters

class TestWeylCharacter:
    def test_rejects_nondominant(self):
        with pytest.raises(ValueError):
            weyl_character(A2, Weight((-1, 0)))

    def test_trivial(self):
        assert weyl_character(A2, Weight((0, 0))).terms == {Weight((0, 0)): 1}

    @pytest.mark.parametrize("n", range(6))
    def test_a1_string(self, n):
        ch = weyl_character(A1, Weight((n,)))
        assert ch.terms == {Weight((n - 2 * k,)): 1 for k in range(n + 1)}

    def test_a2_vector(self):
        ch = weyl_character(A2, Weight((1, 0)))
        assert ch.terms == {
            Weight((1, 0)): 1,
            Weight((-1, 1)): 1,
            Weight((0, -1)): 1,
        }

    def test_a2_adjoint(self):
        ch = weyl_character(A2, Weight((1, 1)))
        assert ch.dimension() == 8
        assert ch.terms.get(Weight((0, 0)), 0) == 2
        assert all(m == 1 for w, m in ch.terms.items() if w != Weight((0, 0)))

    @pytest.mark.parametrize(
        "system,lam,dim",
        [
            (B2, (1, 0), 5),
            (B2, (0, 1), 4),
            (B2, (1, 1), 16),
            (B2, (2, 0), 14),
            (A2, (2, 1), 15),
            (A2, (3, 0), 10),
            (A2xA2, (1, 0, 0, 1), 9),
            (G2, (1, 0), 7),
            (G2, (0, 1), 14),
            (B2xA1, (1, 0, 1), 10),
        ],
    )
    def test_dimensions(self, system, lam, dim):
        lam = Weight(lam)
        ch = weyl_character(system, lam)
        assert ch.dimension() == dim
        assert weyl_dimension(system, lam) == dim

    @pytest.mark.parametrize(
        "system,lam",
        [
            (A1, (4,)),
            (A2, (2, 2)),
            (A2, (3, 1)),
            (B2, (1, 1)),
            (A2xA2, (1, 1, 2, 0)),
            (B2, (2, 1)),
            (B2, (0, 2)),
            (G2, (1, 1)),
            (C3, (1, 1, 0)),
            # products: factors with their own symmetrizer scales, three
            # factors, and weights that differ between equal factors
            (B2xA1, (1, 1, 2)),
            (A1xG2, (1, 1, 0)),
            (A1xA1xA1, (2, 0, 1)),
            (A2xA2, (0, 2, 1, 0)),
            (A2xA2, (2, 1, 0, 3)),
        ],
    )
    def test_matches_alternating_sum(self, system, lam):
        lam = Weight(lam)
        assert weyl_character(system, lam) == kostant_character(system, lam)

    def test_product_system_factorizes(self):
        left = weyl_character(A2, Weight((2, 1)))
        right = weyl_character(A2, Weight((0, 2)))
        outer = {
            Weight(u.coords + v.coords): m * k
            for u, m in left.terms.items()
            for v, k in right.terms.items()
        }
        assert weyl_character(A2xA2, Weight((2, 1, 0, 2))).terms == outer

    def test_weyl_invariance(self):
        ch = weyl_character(A2, Weight((2, 1)))
        for word in [(1,), (2,), (1, 2), (2, 1, 2)]:
            w = weyl_element(A2, word)
            assert {act(w, x): m for x, m in ch.terms.items()} == ch.terms

    def test_self_dual_adjoint(self):
        ch = weyl_character(A2, Weight((1, 1)))
        assert negated(ch) == ch.terms

    def test_dual_is_lowest_weight_flip(self):
        lam = Weight((2, 0))
        ch = weyl_character(A2, lam)
        assert negated(ch) == weyl_character(A2, Weight((0, 2))).terms


# ---------------------------------------------------------------------------
# direct sums, summed on dominant weights

def summed(characters):
    """The terms of a sum of characters, added weight by weight."""
    terms = {}
    for ch in characters:
        for w, m in ch.terms.items():
            terms[w] = terms.get(w, 0) + m
    return Character(terms)


# multisets of highest weights: repeated weights, weights whose modules
# share dominant weights, and products with two and three factors
SUMS = [
    (A2, ((2, 1), (0, 0), (2, 1), (1, 1))),
    (B2, ((1, 1), (0, 2), (2, 0))),
    (A2xA2, ((0, 1, 0, 1), (2, 0, 2, 0))),
    (A2xA2, ((1, 1, 2, 0), (0, 2, 1, 0), (1, 1, 2, 0), (0, 0, 0, 0))),
    (B2xA1, ((1, 1, 2), (0, 2, 0), (1, 1, 2))),
    (A1xG2, ((1, 1, 0), (3, 0, 1))),
    (A1xA1xA1, ((2, 0, 1), (0, 2, 1), (2, 0, 1), (1, 1, 1))),
]

# the simple factors of each product label, with their coordinate slices
FACTORS = {
    A2xA2: ((A2, 0, 2), (A2, 2, 4)),
    B2xA1: ((B2, 0, 2), (A1, 2, 3)),
    A1xG2: ((A1, 0, 1), (G2, 1, 3)),
    A1xA1xA1: ((A1, 0, 1), (A1, 1, 2), (A1, 2, 3)),
}


def immutable(value) -> bool:
    """Built of tuples, frozensets, Weights and ints all the way down."""
    if isinstance(value, (Weight, int)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(immutable, value))
    return False


class TestDirectSum:
    @pytest.mark.parametrize("system,weights", SUMS)
    def test_matches_alternating_sums(self, system, weights):
        weights = [Weight(w) for w in weights]
        expected = summed(kostant_character(system, lam) for lam in weights)
        assert direct_sum_character(system, weights) == expected
        assert direct_sum_character(system, iter(weights)) == expected

    def test_empty_sum(self):
        assert direct_sum_character(A2xA2, ()) == Character()

    def test_rejects_nondominant(self):
        with pytest.raises(ValueError, match="not dominant"):
            direct_sum_character(A2xA2, [Weight((1, 0, 1, 0)), Weight((1, 0, -1, 1))])


class TestCaches:
    ROUTE = (charring._freudenthal, charring._dominant_part, charring._spread)

    def test_cached_values_are_immutable(self):
        # read back every value the summing route's caches hold, from keys
        # rebuilt here: each is immutable all the way down (the orbits are
        # rootsys._orbit's own frozensets), and no returned character can
        # write through into them
        for cache in self.ROUTE:
            cache.cache_clear()
        products = [(s, [Weight(w) for w in ws]) for s, ws in SUMS if s in FACTORS]
        for system, weights in products:
            ch = direct_sum_character(system, weights)
            before = dict(ch.terms)
            w = next(iter(ch.terms))
            with pytest.raises(TypeError):
                ch.terms[w] += 5
            with pytest.raises(TypeError):
                del ch.terms[w]
            with pytest.raises(AttributeError):
                ch.terms = {}
            again = direct_sum_character(system, weights)
            assert again.terms is not ch.terms
            assert again.terms == before
        factor_keys = {
            (factor, Weight(lam[lo:hi]))
            for system, weights in products
            for lam in weights
            for factor, lo, hi in FACTORS[system]
        }
        module_keys = {(system, lam) for system, weights in products for lam in weights}
        parts = self.held(charring._dominant_part, module_keys)
        self.held(charring._freudenthal, factor_keys)
        self.held(charring._spread, {(orbit,) for part in parts for orbit, _ in part})

    @staticmethod
    def held(cache, keys):
        """The values ``cache`` holds under ``keys``, which must be all of
        them, each checked immutable."""
        info = cache.cache_info()
        assert info.currsize == len(keys)
        values = [cache(*key) for key in keys]
        after = cache.cache_info()
        assert (after.hits, after.misses) == (info.hits + len(keys), info.misses)
        assert all(map(immutable, values))
        return values

    def test_caches_are_bounded_above_an_acceptance_run(self):
        # working sets measured on one default acceptance run: 30 factor
        # weights, 655 modules and 1127 product orbits (c10's characters)
        for cache, working_set in zip(self.ROUTE, (30, 655, 1127)):
            assert working_set < cache.cache_info().maxsize < 8 * working_set
