"""Tests for character arithmetic and truncated series."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from wonderco.charring import (
    Character,
    Grading,
    TruncatedSeries,
    TruncationError,
    _pack,
    add,
    restrict_window,
    weyl_character,
    weyl_dimension,
)
from wonderco.rootsys import (
    Weight,
    act,
    build_root_system,
    coset_reps,
    half_sum_positive,
    weyl_element,
)
from weyl_descent import dominant_conjugate, weight_to_root

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
C3 = build_root_system("C", 3)
A2xA2 = build_root_system("A2xA2")
B2xA1 = build_root_system("B2xA1")
A1xG2 = build_root_system("A1xG2")
A1xA1xA1 = build_root_system("A1xA1xA1")
A5 = build_root_system("A", 5)

KEMPF_GRADING = Grading(A5, (1, 2, 3, 2, 1))


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
# gradings

class TestGrading:
    def test_degree_values(self):
        g = KEMPF_GRADING
        assert g.degree(Weight((0, 0, 1, 0, 0))) == 3
        assert g.degree(Weight((1, 0, 0, 0, 0))) == 1
        assert g.degree(Weight((-1, 0, 1, 0, -1))) == 1

    def test_root_degrees_count_middle_node(self):
        g = KEMPF_GRADING
        for r in A5.positive_roots:
            degree = sum(d * c for d, c in zip(g.simple_root_degrees, r.coords))
            assert degree == 2 * r.coords[2]


# ---------------------------------------------------------------------------
# truncated series

ALPHA3 = A5.positive_roots[2]


def monomial(coords, window, cutoff=12):
    """The one-term series e^w, empty when its degree is outside the window."""
    w = Weight(coords)
    inside = window[0] <= KEMPF_GRADING.degree(w) <= window[1]
    offsets = {(0,) * 5: 1} if inside else {}
    packing = _pack(offsets, KEMPF_GRADING.simple_root_degrees)
    return TruncatedSeries(A5, KEMPF_GRADING, w, (), window, cutoff, *packing)


def geometric(coords, window, cutoff=8):
    """e^w / (1 - e^alpha3) on the window: alpha3 has degree 2 and height 1,
    so the k-th term has degree deg(w) + 2k and height k."""
    w = Weight(coords)
    base = KEMPF_GRADING.degree(w)
    offsets = {
        tuple(k * c for c in ALPHA3.coords): 1
        for k in range(cutoff + 1)
        if window[0] <= base + 2 * k <= window[1]
    }
    packing = _pack(offsets, KEMPF_GRADING.simple_root_degrees)
    return TruncatedSeries(A5, KEMPF_GRADING, w, (ALPHA3,), window, cutoff, *packing)


class TestSeriesCombination:
    def test_add_merges_terms(self):
        window = (0, 8)
        a = geometric((0, 0, 0, 0, 0), window)
        b = geometric(
            tuple(sum(A5.cartan[i][j] * ALPHA3.coords[j] for j in range(5)) for i in range(5)),
            window,
        )
        total = add(a, b)
        for w in set(a.terms()) | set(b.terms()):
            assert total.multiplicity(w) == a.multiplicity(w) + b.multiplicity(w)

    def test_add_rebases_onto_first_numerator(self):
        window = (0, 6)
        a = monomial((0, 0, 0, 0, 0), window)
        shifted = Weight(tuple(A5.cartan[i][2] for i in range(5)))
        b = monomial(shifted.coords, window)
        total = add(a, b)
        assert total.numerator_exponent == a.numerator_exponent
        assert total.multiplicity(Weight((0, 0, 0, 0, 0))) == 1
        assert total.multiplicity(shifted) == 1

    def test_add_rejects_mismatched_windows(self):
        a = geometric((0, 0, 0, 0, 0), (0, 8))
        b = geometric((0, 0, 0, 0, 0), (0, 10))
        with pytest.raises(ValueError, match="windows"):
            add(a, b)

    def test_add_rejects_off_lattice_shift(self):
        window = (0, 6)
        a = monomial((0, 0, 0, 0, 0), window)
        b = monomial((1, 0, 0, 0, 0), window)
        with pytest.raises(ValueError, match="root-lattice"):
            add(a, b)

    def test_add_rejects_clipped_base(self):
        window = (4, 8)
        a = monomial((0, 0, 2, 0, 0), window)
        b = monomial((0, 0, 1, 0, 0), window)
        with pytest.raises(ValueError, match="floor above"):
            add(a, b)

    def test_restrict_drops_terms(self):
        s = geometric((0, 0, 0, 0, 0), (0, 8))
        cut = restrict_window(s, (2, 6))
        assert cut.window == (2, 6)
        degs = {KEMPF_GRADING.degree(w) for w in cut.terms()}
        assert degs == {2, 4, 6}

    def test_restrict_rejects_escape(self):
        s = geometric((0, 0, 0, 0, 0), (0, 8))
        with pytest.raises(TruncationError, match="not contained"):
            restrict_window(s, (0, 10))
