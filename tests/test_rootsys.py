"""Tests for root systems, Weyl words, and coset combinatorics."""

import ast
import dataclasses
import importlib
import itertools
import pathlib
import types

import pytest
from hypothesis import given, settings, strategies as st

from wonderco import rootsys as rs
from wonderco.rootsys import Root, Weight
from weyl_descent import dominant_conjugate, weight_to_root, weyl_element, weyl_group

A1 = rs.build_root_system("A1")
A2 = rs.build_root_system("A2")
A3 = rs.build_root_system("A3")
A5 = rs.build_root_system("A5")
A2A2 = rs.build_root_system("A2xA2")

SMALL_SYSTEMS = [A1, A2, A3, rs.build_root_system("B2"), rs.build_root_system("G2"), A2A2]


# ---------------------------------------------------------------------------
# the vector types

def test_coords_is_a_plain_tuple():
    w = Weight((1, -2, 3))
    assert type(w.coords) is tuple and w.coords == (1, -2, 3)
    # on the plain tuple + concatenates rather than adding coordinatewise
    assert w.coords + (0,) == (1, -2, 3, 0)
    assert type(Root((1, 0)).coords) is tuple


def test_repr_names_the_type_and_coordinates():
    assert repr(Weight((1, -2))) == "Weight(coords=(1, -2))"
    assert repr(Root((0, 1))) == "Root(coords=(0, 1))"


vectors = st.lists(st.integers(-9, 9), min_size=1, max_size=5)


@given(
    kind=st.sampled_from([Root, Weight]),
    pair=vectors.flatmap(
        lambda a: st.tuples(
            st.just(a), st.lists(st.integers(-9, 9), min_size=len(a), max_size=len(a))
        )
    ),
    k=st.integers(-4, 4),
)
@settings(max_examples=40, deadline=None)
def test_arithmetic_is_coordinatewise_and_keeps_the_type(kind, pair, k):
    a, b = pair
    x, y = kind(a), kind(b)
    results = [
        (x + y, [p + q for p, q in zip(a, b)]),
        (x - y, [p - q for p, q in zip(a, b)]),
        (-x, [-p for p in a]),
    ]
    if kind is Weight:
        results.append((x.scale(k), [k * p for p in a]))
    for got, want in results:
        assert type(got) is kind
        assert got.coords == tuple(want)


def test_vectors_are_immutable():
    for v in (Weight((1, 2)), Root((1, 0))):
        with pytest.raises(AttributeError):
            v.coords = (0, 0)
        with pytest.raises(AttributeError):
            v.extra = 1


@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=12))
@settings(max_examples=40, deadline=None)
def test_weight_order_is_coordinate_order(rows):
    weights = [Weight(r) for r in rows]
    assert sorted(weights) == sorted(weights, key=lambda w: w.coords)


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize(
    "label,rank,count",
    [
        ("A", 1, 2),
        ("A", 2, 6),
        ("A", 5, 30),
        ("B", 2, 8),
        ("B", 3, 18),
        ("C", 3, 18),
        ("C", 4, 32),
        ("D", 4, 24),
        ("D", 5, 40),
        ("E", 6, 72),
        ("E", 7, 126),
        ("E", 8, 240),
        ("F", 4, 48),
        ("G", 2, 12),
    ],
)
def test_classical_root_counts(label, rank, count):
    system = rs.build_root_system(label, rank)
    assert 2 * len(system.positive_roots) == count


def test_invalid_type_rejected():
    with pytest.raises(ValueError):
        rs.build_root_system("H", 3)
    with pytest.raises(ValueError):
        rs.build_root_system("D", 2)
    with pytest.raises(ValueError):
        rs.build_root_system("E", 9)
    with pytest.raises(ValueError):
        rs.build_root_system("bogus")


@pytest.mark.parametrize("system", SMALL_SYSTEMS + [A5], ids=lambda s: s.type_label)
def test_system_invariants(system):
    c = system.cartan
    n = system.rank
    assert all(c[i][i] == 2 for i in range(n))
    assert all(c[i][j] <= 0 for i in range(n) for j in range(n) if i != j)
    roots = rs.all_roots(system)
    for r in system.positive_roots:
        assert r.is_positive()
        assert (-r).coords in roots
        for i in range(1, n + 1):
            assert rs.reflect_root(system, i, r).coords in roots


def test_positive_roots_graded_lex_order():
    heights = [sum(r) for r in A5.positive_roots]
    assert heights == sorted(heights)
    # first come the simple roots themselves, in index order
    for i in range(1, 6):
        assert A5.positive_roots[i - 1] == rs.simple_root(A5, i)


def test_product_system_block_structure():
    assert A2A2.rank == 4
    assert len(A2A2.positive_roots) == 6
    for r in A2A2.positive_roots:
        left = any(r.coords[:2])
        right = any(r.coords[2:])
        assert left != right  # no mixed roots


# ---------------------------------------------------------------------------
# pairing

def test_pairing_cartan_diagonal():
    for system in SMALL_SYSTEMS:
        for i in range(1, system.rank + 1):
            assert rs.pairing(system, rs.simple_root(system, i), i) == 2


def test_pairing_duality_of_bases():
    for system in SMALL_SYSTEMS:
        for i in range(1, system.rank + 1):
            for j in range(1, system.rank + 1):
                w = Weight(int(k == j) for k in range(1, system.rank + 1))
                assert rs.pairing(system, w, i) == int(i == j)


def test_pairing_a5_example():
    beta = rs.simple_root(A5, 2) + rs.simple_root(A5, 3)
    assert rs.pairing(A5, beta, 3) == 1


def test_pairing_index_range():
    with pytest.raises(IndexError):
        rs.pairing(A2, rs.simple_root(A2, 1), 3)


@given(
    a=st.tuples(*[st.integers(-6, 6)] * 3),
    b=st.tuples(*[st.integers(-6, 6)] * 3),
    i=st.integers(1, 3),
)
def test_pairing_bilinear_in_weight(a, b, i):
    wa, wb = Weight(a), Weight(b)
    assert rs.pairing(A3, wa + wb, i) == rs.pairing(A3, wa, i) + rs.pairing(A3, wb, i)


# ---------------------------------------------------------------------------
# conversions

def test_root_weight_round_trip():
    for system in SMALL_SYSTEMS + [A5]:
        for r in system.positive_roots:
            back = rs.root_lattice_coords(system, rs.root_to_weight(system, r))
            assert back == r.coords


def test_weight_to_root_fractional():
    # a fundamental weight of A2 is not in the root lattice: its root
    # coordinates are (2/3, 1/3), so three times it is 2 alpha_1 + alpha_2
    omega = Weight((1, 0))
    assert rs.root_lattice_coords(A2, omega) is None
    assert rs.root_lattice_coords(A2, omega.scale(3)) == (2, 1)


@pytest.mark.parametrize("system", SMALL_SYSTEMS + [A5], ids=lambda s: s.type_label)
def test_root_lattice_coords_match_fractions(system):
    # the integer map agrees with the exact rational one: the same
    # coordinates on the root lattice, None off it
    n = system.rank
    span = range(-3, 4) if n <= 2 else range(-1, 2)
    hits = 0
    for coords in itertools.product(span, repeat=n):
        w = Weight(coords)
        exact = weight_to_root(system, w)
        got = rs.root_lattice_coords(system, w)
        if all(x.denominator == 1 for x in exact):
            assert got == tuple(int(x) for x in exact)
            hits += 1
        else:
            assert got is None
    assert hits > 1


# ---------------------------------------------------------------------------
# invariant form

FORM_SYSTEMS = [rs.build_root_system(label) for label in ("B2", "G2", "C3")]


@pytest.mark.parametrize("system", FORM_SYSTEMS, ids=lambda s: s.type_label)
def test_coroot_pairing_recovers_cartan_exactly(system):
    # <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i) is
    # an exact integer quotient, and doubling both roots (as the restricted
    # roots alpha - theta(alpha) are doubled) leaves it unchanged
    n = system.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a_i, a_j = rs.simple_root(system, i), rs.simple_root(system, j)
            for scale in (1, 2):
                x = Root(scale * c for c in a_j)
                beta = Root(scale * c for c in a_i)
                num = 2 * rs.root_inner(system, x, beta)
                den = rs.root_inner(system, beta, beta)
                assert num % den == 0
                assert num // den == system.cartan[i - 1][j - 1]


@pytest.mark.parametrize("system", FORM_SYSTEMS, ids=lambda s: s.type_label)
def test_root_inner_is_an_integer_symmetric_form(system):
    roots = sorted(rs.all_roots(system))
    for a in roots:
        for b in roots:
            v = rs.root_inner(system, a, b)
            assert type(v) is int
            assert v == rs.root_inner(system, b, a)
        assert rs.root_inner(system, a, a) > 0


# ---------------------------------------------------------------------------
# Weyl action

def test_act_identity():
    w = weyl_element(A5, ())
    x = Weight((1, -2, 3, 0, 1))
    assert rs.act(w, x) == x


def test_act_own_root():
    for system in SMALL_SYSTEMS:
        s1 = weyl_element(system, (1,))
        a1 = rs.simple_root(system, 1)
        assert rs.act(s1, a1) == -a1


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_act_s1_on_leading_exponent(k):
    # (k/2)(a3 - a5 - a1) has fundamental coords (-k, 0, k, 0, -k); applying
    # s_1 flips the a1 contribution, giving (k/2)(a3 - a5 + a1).
    start = Weight((-k, 0, k, 0, -k))
    expect = Weight((k, -k, k, 0, -k))
    s1 = weyl_element(A5, (1,))
    assert rs.act(s1, start) == expect


@given(
    word1=st.lists(st.integers(1, 5), max_size=10),
    word2=st.lists(st.integers(1, 5), max_size=10),
    coords=st.tuples(*[st.integers(-4, 4)] * 5),
)
@settings(max_examples=60, deadline=None)
def test_act_is_an_action(word1, word2, coords):
    w1 = weyl_element(A5, word1)
    w2 = weyl_element(A5, word2)
    x = Weight(coords)
    assert rs.act(weyl_element(A5, w1.word + w2.word), x) == rs.act(w1, rs.act(w2, x))


@given(word=st.lists(st.integers(1, 5), max_size=12))
@settings(max_examples=60, deadline=None)
def test_canonical_word_is_reduced_and_consistent(word):
    w = weyl_element(A5, word)
    # length equals the inversion count of the root permutation
    inversions = sum(
        1 for r in A5.positive_roots if all(c <= 0 for c in rs.act(w, r))
    )
    assert len(w.word) == inversions
    # canonical form is idempotent
    assert weyl_element(A5, w.word) == w
    # inverse really inverts
    assert weyl_element(A5, w.word + tuple(reversed(w.word))).word == ()


# ---------------------------------------------------------------------------
# cosets and the Weyl group

def test_weyl_group_orders():
    assert len(rs.coset_reps(A2, set())) == 6
    assert len(rs.coset_reps(A3, set())) == 24
    assert len(rs.coset_reps(A5, set())) == 720


def test_coset_reps_full_parabolic():
    reps = rs.coset_reps(A5, {1, 2, 3, 4, 5})
    assert reps == (weyl_element(A5, ()),)


def test_coset_reps_a1_empty():
    reps = rs.coset_reps(A1, set())
    assert [w.word for w in reps] == [(), (1,)]


def test_coset_reps_grassmannian_parabolic():
    reps = rs.coset_reps(A5, {1, 2, 4, 5})
    assert len(reps) == 20
    lengths = [len(w) for w in reps]
    assert lengths == sorted(lengths)
    # rank generating function of the 3x3 Gaussian binomial
    from collections import Counter

    assert Counter(lengths) == Counter(
        {0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 3, 7: 2, 8: 1, 9: 1}
    )
    # every rep keeps the parabolic simples positive
    for w in reps:
        for j in (1, 2, 4, 5):
            assert rs.act(w, rs.simple_root(A5, j)).is_positive()


@pytest.mark.parametrize(
    "subset,parabolic_order",
    [
        (frozenset(), 1),
        (frozenset({1}), 2),
        (frozenset({1, 2}), 6),
        (frozenset({1, 3}), 4),
        (frozenset({1, 2, 3}), 24),
    ],
)
def test_coset_reps_partition_w(subset, parabolic_order):
    reps = rs.coset_reps(A3, subset)
    assert len(reps) * parabolic_order == 24


def test_longest_parabolic():
    w0p = rs.longest_parabolic(A5, {1, 2, 4, 5})
    assert len(w0p) == 6
    # it fixes the third fundamental weight and is an involution
    omega3 = Weight((0, 0, 1, 0, 0))
    assert rs.act(w0p, omega3) == omega3
    assert weyl_element(A5, w0p.word + w0p.word).word == ()
    # full longest element of A2 has length 3
    assert len(rs.longest_parabolic(A2, {1, 2})) == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: rs.coset_reps(A2, {3}),
        lambda: rs.coset_reps(A2, {0, 1}),
        lambda: rs.longest_parabolic(A2, {3}),
        lambda: rs.longest_parabolic(A2, {-1}),
        # the tests' own constructor: a word naming no simple reflection
        # spells no element, not the identity
        lambda: weyl_element(A2, (3,)),
        lambda: weyl_element(A2, (1, 0)),
    ],
    ids=[
        "cosets-high", "cosets-zero", "longest-high", "longest-negative",
        "oracle-word-high", "oracle-word-zero",
    ],
)
def test_simple_index_out_of_range(call):
    with pytest.raises(IndexError, match="out of range"):
        call()


# ---------------------------------------------------------------------------
# the weight descent against the action-matrix oracle

@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A2xA2"]
)
def test_canonical_words_match_matrix_oracle(label):
    system = rs.build_root_system(label)
    words = [word for _, word in weyl_group(system)]
    assert [w.word for w in rs.coset_reps(system, set())] == sorted(
        words, key=lambda word: (len(word), word)
    )


@pytest.mark.parametrize("label", ["A3", "B3", "A5"])
def test_cosets_and_longest_parabolic_match_matrix_oracle(label):
    system = rs.build_root_system(label)
    group = weyl_group(system)
    n = system.rank
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            # minimal representatives keep the parabolic's simple roots positive
            minimal = [
                word
                for m, word in group
                if all(m[k][j - 1] >= 0 for j in subset for k in range(n))
            ]
            assert [w.word for w in rs.coset_reps(system, set(subset))] == sorted(
                minimal, key=lambda word: (len(word), word)
            )
            longest = max(
                (word for _, word in group if set(word) <= set(subset)), key=len
            )
            assert rs.longest_parabolic(system, set(subset)).word == longest


# ---------------------------------------------------------------------------
# dominant conjugates

def test_dominant_conjugate_already_dominant():
    mu = Weight((2, 0, 1, 0, 3))
    plus, w, length, regular = dominant_conjugate(A5, mu)
    assert plus == mu and w.word == () and length == 0
    assert regular is False  # zero pairings present
    assert dominant_conjugate(A5, Weight((1, 1, 1, 1, 1)))[3] is True


def test_dominant_conjugate_zero_is_singular():
    plus, w, length, regular = dominant_conjugate(A2, Weight((0, 0)))
    assert plus == Weight((0, 0)) and length == 0 and regular is False


def test_dominant_conjugate_single_reflection():
    rho = rs.half_sum_positive(A2)
    mu = rs.reflect_weight(A2, 1, rho)
    plus, w, length, regular = dominant_conjugate(A2, mu)
    assert plus == rho
    assert w == weyl_element(A2, (1,))
    assert length == 1 and regular is True


def test_dominant_conjugate_antidominant():
    rho = rs.half_sum_positive(A2)
    plus, w, length, regular = dominant_conjugate(A2, -rho)
    assert plus == rho and length == 3 and regular is True


@given(coords=st.tuples(*[st.integers(-5, 5)] * 5))
@settings(max_examples=80, deadline=None)
def test_dominant_conjugate_property(coords):
    mu = Weight(coords)
    plus, w, length, regular = dominant_conjugate(A5, mu)
    assert plus.is_dominant()
    assert rs.act(w, mu) == plus
    assert length == len(w.word)
    assert regular == all(c > 0 for c in plus)


# ---------------------------------------------------------------------------
# rho and serialization

def test_half_sum_positive():
    assert rs.half_sum_positive(A1) == Weight((1,))
    assert rs.half_sum_positive(A2) == Weight((1, 1))
    assert rs.half_sum_positive(A5) == Weight((1, 1, 1, 1, 1))
    # really is half the sum of the positive roots
    for system in SMALL_SYSTEMS:
        total = Weight((0,) * system.rank)
        for r in system.positive_roots:
            total = total + rs.root_to_weight(system, r)
        assert total == rs.half_sum_positive(system).scale(2)


# ---------------------------------------------------------------------------
# the frozen-record decorator, against dataclasses as the oracle


def _record_classes() -> dict[str, tuple[type, set[str]]]:
    """Every class the package decorates with ``_record``, found in the
    source, with the names its body defines (methods and field defaults)."""
    found = {}
    for path in sorted(pathlib.Path(rs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "_record"
                for d in node.decorator_list
            ):
                module = importlib.import_module(f"wonderco.{path.stem}")
                body = {
                    n.name for n in node.body if isinstance(n, ast.FunctionDef)
                } | {
                    n.target.id
                    for n in node.body
                    if isinstance(n, ast.AnnAssign) and n.value is not None
                }
                found[node.name] = (getattr(module, node.name), body)
    return found


RECORDS = _record_classes()

# constructor arguments for the records whose __post_init__ rejects the
# generic values below
VALID_ARGS = {
    "PluckerIndex": [((2, 1), (3,)), ((1,), (3, 2)), ((2, 1), (3,)), ((2, 1), (2,))],
}
GENERIC_VALUES = (0, "F1", (1, 2), None, Weight((1, 0)), -3, frozenset({2}), ())


def sample_args(name: str, count: int) -> list[tuple]:
    """Four argument tuples: two distinct, a repeat of the first, and the
    first with its last field changed."""
    if name in VALID_ARGS:
        return VALID_ARGS[name]
    first, second = (
        tuple(GENERIC_VALUES[(i + s) % len(GENERIC_VALUES)] for i in range(count))
        for s in (0, 3)
    )
    return [first, second, first, first[:-1] + ("other",)]


def dataclass_twin(cls: type, body: set[str]) -> type:
    """``dataclasses.make_dataclass(frozen=True)`` over the same fields,
    defaults and class-body methods."""
    fields = [
        (n, object, vars(cls)[n]) if n in body else (n, object)
        for n in cls.__annotations__
    ]
    namespace = {n: vars(cls)[n] for n in body if n not in cls.__annotations__}
    namespace["__qualname__"] = cls.__qualname__
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, namespace=namespace
    )


def test_record_scan_finds_the_package_records():
    assert {
        "RootSystem", "WeylElement", "Grading", "PluckerIndex", "TruncatedSeries",
    } <= set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_frozen_dataclass(name):
    cls, body = RECORDS[name]
    # the methods the class body defines are the ones the class keeps
    for method in body - set(cls.__annotations__):
        defined = vars(cls)[method]
        if isinstance(defined, types.FunctionType):
            assert defined.__qualname__ == f"{cls.__qualname__}.{method}"
    twin = dataclass_twin(cls, body)
    names = tuple(cls.__annotations__)
    args = sample_args(name, len(names))
    objs = [cls(*a) for a in args]
    twins = [twin(*a) for a in args]
    for obj, tw in zip(objs, twins):
        assert repr(obj) == repr(tw)
        assert hash(obj) == hash(tw)
        assert obj.__eq__(object()) is tw.__eq__(object())
        assert (obj == tw) is False
        # another record class holding the same values
        values = tuple(getattr(obj, n) for n in names)
        other = rs._record(type(name, (), {"__annotations__": dict.fromkeys(names)}))
        assert (obj == other(*values), obj != other(*values)) == (False, True)
        for field in names:
            with pytest.raises(AttributeError):
                setattr(obj, field, 0)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.not_a_field = 0
    if "__eq__" in body:
        # the body's own __eq__ names the class, so its twin is no oracle
        return
    for obj, tw in zip(objs, twins):
        # a subclass compares as the dataclass's subclass does
        values = tuple(getattr(obj, n) for n in names)
        sub, twin_sub = type(name, (cls,), {}), type(name, (twin,), {})
        assert (sub(*values) == obj) == (twin_sub(*values) == tw)
        assert (obj == sub(*values)) == (tw == twin_sub(*values))
    for (a, ta), (b, tb) in itertools.product(zip(objs, twins), repeat=2):
        assert (a == b, a != b) == (ta == tb, ta != tb)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_construction_matches_frozen_dataclass(name):
    cls, body = RECORDS[name]
    twin = dataclass_twin(cls, body)
    names = tuple(cls.__annotations__)
    args = sample_args(name, len(names))[0]
    by_keyword = dict(zip(names, args))
    assert repr(cls(**by_keyword)) == repr(cls(*args)) == repr(twin(**by_keyword))
    required = [n for n in names if n not in body]
    assert repr(cls(*args[: len(required)])) == repr(twin(*args[: len(required)]))
    bad = [(args + (0,), {}), (args, {"not_a_field": 0}), (args, {names[0]: args[0]})]
    if required:
        bad.append((args[: len(required) - 1], {}))
    for bad_args, bad_kwargs in bad:
        with pytest.raises(TypeError):
            twin(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_record_post_init_runs():
    from wonderco.gitgrass import PluckerIndex

    index = PluckerIndex(second=(3, 2), first=(1,))
    assert (index.first, index.second) == ((1,), (2, 3))


def test_record_keeps_class_body_methods():
    assert repr(A2) == "RootSystem(A2)"
    assert hash(A2) == A2._hash
    grading = RECORDS["Grading"][0]((1, 2, 3, 2, 1))
    assert grading.simple_root_degrees is grading.simple_root_degrees
