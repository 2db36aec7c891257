import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import twisted
from azumaya.cli import cochain_from_json, cochain_to_json
from azumaya.errors import (CoverMismatchError, InvalidInputError,
                            UndecidableGroupError)
from azumaya.linalg import PolyMatrix
from azumaya.poly import MultiPoly
from azumaya.suites import rand_cochain1
from azumaya.twisted import (CheckResult, Cochain1, CoverNerve, Mu, Qstar,
                             SheafOnP1, TwistedBundle, UnitCochain2,
                             check_2cocycle, coboundary, endomorphism_azumaya,
                             hilbert_poly, is_coboundary,
                             morphism_hilbert_poly, refine,
                             twist_matching_check, twist_of_hom,
                             twist_of_tensor, twist_inverse,
                             twisted_gluing_check)
from test_linalg import fraction_rref

N4 = CoverNerve(4)
N3 = CoverNerve(3)


def sorted_triples(nerve):
    idx = list(nerve.indices())
    return [(i, j, k) for i in idx for j in idx for k in idx if i < j < k]


def alternating_cochain(nerve, group, sorted_values):
    """Build a cochain from values on sorted triples, extended alternately."""
    values = {}
    for (i, j, k), val in sorted_values.items():
        for perm, sign in [((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                           ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)]:
            values[perm] = val if sign == 1 else group.inv(val)
    return UnitCochain2(nerve, group, values)


# -- cocycle and coboundary ----------------------------------------------------

def test_trivial_cochain_is_cocycle():
    assert check_2cocycle(UnitCochain2.trivial(N4, Qstar())).ok


def test_dd_trivial_random():
    rng = random.Random(109)
    for _ in range(150):
        size = rng.randint(2, 5)
        nerve = CoverNerve(size)
        group = Mu(rng.choice([2, 3, 4, 6])) if rng.random() < 0.5 else Qstar()
        beta = rand_cochain1(rng, nerve, group)
        assert check_2cocycle(coboundary(beta)).ok


def test_constant_beta_on_sorted_triples():
    c = Fraction(5, 3)
    beta = Cochain1(N4, Qstar(), {(i, j): c for i in range(4) for j in range(4) if i < j})
    alpha = coboundary(beta)
    for t in sorted_triples(N4):
        assert alpha.value(*t) == c


@st.composite
def cochains1(draw):
    """Mu(n) for n = 1..6 or Qstar (negative values, denominators up to 7)
    on 1..7 indices, with values on pairs in either order."""
    size = draw(st.integers(1, 7))
    group = draw(st.one_of(st.builds(Mu, st.integers(1, 6)), st.just(Qstar())))
    unit = (st.integers(-12, 12) if isinstance(group, Mu)
            else st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7)))
    pairs = [(i, j) for i in range(size) for j in range(size) if i < j]
    values = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ():
        values[(j, i) if draw(st.booleans()) else (i, j)] = draw(unit)
    return Cochain1(CoverNerve(size), group, values)


@settings(max_examples=300, deadline=None)
@given(cochains1())
def test_coboundary_is_the_triple_product(beta):
    # the tables of numerators, denominators and residues against group.op/inv
    g, idx = beta.group, beta.nerve.indices()
    want = {}
    for i, j, k in product(idx, repeat=3):
        v = g.op(g.op(beta.value(j, k), g.inv(beta.value(i, k))), beta.value(i, j))
        if len({i, j, k}) == 3 and v != g.identity():
            want[(i, j, k)] = v
    got = coboundary(beta).values
    assert got == want
    assert all(type(v) is (int if isinstance(g, Mu) else Fraction) for v in got.values())


def test_perturbed_coboundary_reported():
    g = Mu(3)
    beta = Cochain1(N4, g, {(0, 1): 1, (1, 2): 2, (0, 3): 1})
    alpha = coboundary(beta)
    vals = dict(alpha.values)
    vals[(0, 1, 2)] = (alpha.value(0, 1, 2) + 1) % 3
    res = check_2cocycle(UnitCochain2(N4, g, vals))
    assert not res.ok and res.where is not None


def test_normalization_enforced():
    with pytest.raises(InvalidInputError):
        UnitCochain2(N3, Mu(3), {(0, 0, 1): 2})
    with pytest.raises(InvalidInputError):
        Cochain1(N3, Mu(3), {(1, 1): 2})
    with pytest.raises(InvalidInputError):
        UnitCochain2(N3, Qstar(), {(0, 1, 2): 0})


# -- is_coboundary ---------------------------------------------------------------

def test_is_coboundary_trivial():
    ok, wit = is_coboundary(UnitCochain2.trivial(N4, Mu(4)))
    assert ok and coboundary(wit) == UnitCochain2.trivial(N4, Mu(4))


def test_is_coboundary_witness_replay():
    rng = random.Random(113)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        size = rng.randint(2, 5)
        nerve = CoverNerve(size)
        beta = rand_cochain1(rng, nerve, Mu(n))
        alpha = coboundary(beta)
        ok, wit = is_coboundary(alpha)
        assert ok
        assert coboundary(wit) == alpha


def test_is_coboundary_engineered_no():
    # mu_2 alternating cochain failing the delta system on a 4-index nerve
    cand = alternating_cochain(N4, Mu(2), {(0, 1, 2): 1})
    ok, wit = is_coboundary(cand)
    assert not ok and wit is None


def test_is_coboundary_rejects_non_alternating():
    vals = {(0, 1, 2): 1}   # a single ordered triple, no alternating images
    cand = UnitCochain2(N3, Mu(3), vals)
    ok, wit = is_coboundary(cand)
    assert not ok


def test_is_coboundary_needs_mu():
    with pytest.raises(UndecidableGroupError):
        is_coboundary(UnitCochain2.trivial(N4, Qstar()))


# -- refinement --------------------------------------------------------------------

def test_refine_identity():
    rng = random.Random(127)
    beta = rand_cochain1(rng, N4, Mu(4))
    alpha = coboundary(beta)
    assert refine(alpha, [0, 1, 2, 3]) == alpha


def test_refine_constant_map_trivializes():
    rng = random.Random(131)
    alpha = coboundary(rand_cochain1(rng, N4, Mu(4)))
    assert refine(alpha, [2, 2, 2]).is_trivial()


def test_refine_preserves_cocycle():
    rng = random.Random(137)
    for _ in range(30):
        alpha = coboundary(rand_cochain1(rng, N4, Qstar()))
        sigma = [rng.randrange(4) for _ in range(rng.randint(2, 6))]
        assert check_2cocycle(refine(alpha, sigma)).ok


# -- twist arithmetic ----------------------------------------------------------------

def _mu6_pair():
    a = alternating_cochain(N3, Mu(6), {(0, 1, 2): 2})
    b = alternating_cochain(N3, Mu(6), {(0, 1, 2): 3})
    return a, b


def test_tensor_group_law():
    a, b = _mu6_pair()
    assert twist_of_tensor(a, b).value(0, 1, 2) == 5


def test_hom_of_equal_twists_descends():
    a, _ = _mu6_pair()
    assert twist_of_hom(a, a).is_trivial()


def test_tensor_with_inverse_trivial():
    a, _ = _mu6_pair()
    assert twist_of_tensor(a, twist_inverse(a)).is_trivial()


def test_twist_abelian_axioms():
    rng = random.Random(139)
    for _ in range(30):
        g = Mu(rng.choice([2, 3, 4, 6]))
        trip = [coboundary(rand_cochain1(rng, N4, g)) for _ in range(3)]
        a, b, c = trip
        assert twist_of_tensor(twist_of_tensor(a, b), c) == \
            twist_of_tensor(a, twist_of_tensor(b, c))
        assert twist_of_tensor(a, b) == twist_of_tensor(b, a)
        triv = UnitCochain2.trivial(N4, g)
        assert twist_of_tensor(a, triv) == a
        assert twist_of_hom(a, b) == twist_of_tensor(twist_inverse(a), b)


def test_twist_cover_mismatch():
    a = UnitCochain2.trivial(N4, Mu(4))
    b = UnitCochain2.trivial(N3, Mu(4))
    with pytest.raises(CoverMismatchError):
        twist_of_tensor(a, b)
    with pytest.raises(CoverMismatchError):
        twist_of_tensor(UnitCochain2.trivial(N4, Mu(4)),
                        UnitCochain2.trivial(N4, Mu(2)))


# -- twist matching -------------------------------------------------------------------

def test_matching_equal_pullbacks():
    rng = random.Random(149)
    alpha = coboundary(rand_cochain1(rng, N4, Mu(4)))
    sigma = [0, 1, 1, 2, 3]
    assert twist_matching_check(refine(alpha, sigma), refine(alpha, sigma)).ok


def test_matching_cohomologous_but_unequal():
    rng = random.Random(151)
    g = Mu(4)
    alpha = coboundary(rand_cochain1(rng, N4, g))
    shift = coboundary(Cochain1(N4, g, {(0, 1): 1}))
    shifted = twist_of_tensor(alpha, shift)
    assert is_coboundary(twist_of_hom(alpha, shifted))[0]   # same class
    res = twist_matching_check(alpha, shifted)
    assert not res.ok and res.where is not None


def test_matching_and_equality_agree_with_full_scan():
    # the first differing triple and ==, against a comparison of all N^3 values
    rng = random.Random(257)
    for _ in range(200):
        size = rng.randint(1, 5)
        group = rng.choice([Mu(1), Mu(2), Mu(6), Qstar()])
        nerve = CoverNerve(size)
        left = coboundary(rand_cochain1(rng, nerve, group))
        triples = distinct_triples(size)
        right = perturbed(left, rng.sample(triples, min(len(triples), rng.randint(0, 2))), rng)
        diff = [t for t in product(range(size), repeat=3) if left.value(*t) != right.value(*t)]
        res = twist_matching_check(left, right)
        assert (res.ok, res.where) == ((True, None) if not diff else (False, diff[0]))
        assert (left == right) == (right == left) == (not diff)


# -- twisted bundles -------------------------------------------------------------------

def scalar_bundle(rng, nerve, rank=2):
    beta = rand_cochain1(rng, nerve, Qstar())
    alpha = coboundary(beta)
    gluing = {}
    for i in nerve.indices():
        for j in nerve.indices():
            if i != j:
                b = beta.value(i, j)
                gluing[(i, j)] = [[b if p == q else Fraction(0) for q in range(rank)]
                                  for p in range(rank)]
    return TwistedBundle(rank, nerve, gluing, alpha), beta


def test_scalar_gluing_passes():
    rng = random.Random(157)
    for _ in range(25):
        bundle, _ = scalar_bundle(rng, N4)
        assert twisted_gluing_check(bundle).ok


def test_untwisted_cocycle_gluing_passes():
    bundle = TwistedBundle(2, N4, {}, UnitCochain2.trivial(N4, Qstar()))
    assert twisted_gluing_check(bundle).ok


def test_single_entry_perturbation_rejected():
    rng = random.Random(163)
    for _ in range(25):
        bundle, _ = scalar_bundle(rng, N4)
        pair = rng.choice([(0, 1), (1, 2), (2, 3)])
        bad = {k: [list(m.row(i)) for i in range(m.rows)] for k, m in bundle.gluing.items()}
        bad[pair][rng.randrange(2)][rng.randrange(2)] += Fraction(1, 3)
        res = twisted_gluing_check(TwistedBundle(2, N4, bad, bundle.twist))
        assert not res.ok and res.where is not None


def test_gluing_condition_order():
    # non-identity diagonal reported first, as (i, i)
    bundle = TwistedBundle(2, N3, {(0, 0): [[2, 0], [0, 1]]},
                           UnitCochain2.trivial(N3, Qstar()))
    res = twisted_gluing_check(bundle)
    assert not res.ok and res.where == (0, 0)


def test_mu_twist_embedding_limits():
    alpha = alternating_cochain(N3, Mu(3), {(0, 1, 2): 1})
    bundle = TwistedBundle(1, N3, {}, alpha)
    with pytest.raises(InvalidInputError):
        twisted_gluing_check(bundle)


# -- endomorphism descent ---------------------------------------------------------------

def test_endomorphism_rank_one_trivializes():
    rng = random.Random(167)
    bundle, beta = scalar_bundle(rng, N4, rank=1)
    endo = endomorphism_azumaya(bundle)
    assert endo.rank == 1
    assert all(endo.g(i, j) == PolyMatrix.identity(1)
               for i in range(4) for j in range(4))


def test_endomorphism_scalar_rank_two():
    rng = random.Random(173)
    bundle, _ = scalar_bundle(rng, N4, rank=2)
    endo = endomorphism_azumaya(bundle)
    assert endo.rank == 4
    assert twisted_gluing_check(endo).ok
    assert endo.twist.is_trivial()


def rational_scalar(group, val):
    """The scalar a twist value acts by; mu_n with n > 2 has none, so such
    bundles are glued untwisted (their gluing check raises anyway)."""
    if isinstance(group, Qstar):
        return val
    return Fraction(-1) ** val if group.n == 2 else Fraction(1)


def inverse(m):
    """The inverse of a constant square PolyMatrix, read off the reduced form
    of [M | I]; None when M is singular."""
    r = m.rows
    red, pivots = fraction_rref([[e.as_fraction() for e in m.row(i)]
                                 + [Fraction(int(i == j)) for j in range(r)] for i in range(r)])
    if pivots != list(range(r)):
        return None
    return PolyMatrix.from_rows([row[r:] for row in red])


def sympy_inverse(m):
    """The inverse of a constant invertible square PolyMatrix, by sympy."""
    fracs = [e.as_fraction() for e in m.entries]
    inv = sympy.Matrix(m.rows, m.cols, [sympy.Rational(c.numerator, c.denominator)
                                        for c in fracs]).inv()
    return PolyMatrix(m.rows, m.cols, [Fraction(int(c.p), int(c.q)) for c in inv])


def frame_bundle(rng, nerve, rank=2, group=Qstar()):
    """A valid bundle twisted by a coboundary: g_ij = beta_ij F_j F_i^-1
    for random invertible integer frames F_i."""
    beta = rand_cochain1(rng, nerve, group)
    alpha = coboundary(beta)
    frames = []   # (F, F^-1)
    for _ in nerve.indices():
        while True:
            p = PolyMatrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(rank)]
                                      for _ in range(rank)])
            if inverse(p) is not None:
                frames.append((p, inverse(p)))
                break
    gluing = {}
    for i in nerve.indices():
        for j in nerve.indices():
            if i != j:
                base = frames[j][0] * frames[i][1]
                gluing[(i, j)] = base.scale(rational_scalar(group, beta.value(i, j)))
    return TwistedBundle(rank, nerve, gluing, alpha)


def test_endomorphism_generic_rank_two():
    rng = random.Random(179)
    for _ in range(10):
        bundle = frame_bundle(rng, N4)
        assert twisted_gluing_check(bundle).ok
        endo = endomorphism_azumaya(bundle)
        assert twisted_gluing_check(endo).ok


def test_endomorphism_gluing_is_conjugation():
    # h_ij vec(M) = vec(g_ij M g_ij^-1), with the inverse computed by sympy
    rng = random.Random(181)
    for t in range(12):
        rank, nerve = 1 + t % 3, (N3, N4)[t % 2]
        bundle = frame_bundle(rng, nerve, rank)
        endo = endomorphism_azumaya(bundle)
        units = [PolyMatrix(rank, rank, [int((p, q) == (a, b))
                                         for p in range(rank) for q in range(rank)])
                 for a in range(rank) for b in range(rank)]
        for (i, j), g in bundle.gluing.items():
            h, ginv = endo.g(i, j), sympy_inverse(g)
            for col, m in enumerate(units):
                conj = g * m * ginv
                assert [h[row, col] for row in range(h.rows)] == list(conj.entries)


@pytest.mark.parametrize("rank", [0, -1, True, 1.0, "2"])
def test_bundle_rank_must_be_a_positive_int(rank):
    with pytest.raises(InvalidInputError):
        TwistedBundle(rank, N3, {}, UnitCochain2.trivial(N3, Qstar()))


@pytest.mark.parametrize("entry", [0.1, 2.0, "abc", "1/0", True, None, MultiPoly.var("z")])
def test_bundle_entries_must_be_exact_rationals(entry):
    with pytest.raises(InvalidInputError):
        TwistedBundle(1, N3, {(0, 1): [[entry]]}, UnitCochain2.trivial(N3, Qstar()))


def test_bundle_stores_constant_polymatrices():
    trivial = UnitCochain2.trivial(N3, Qstar())
    bundle = TwistedBundle(1, N3, {(0, 1): [[MultiPoly.const(Fraction(2, 3))]],
                                   (1, 0): [["3/2"]], (1, 2): [[-1]]}, trivial)
    assert bundle.gluing == {(0, 1): PolyMatrix.from_rows([[Fraction(2, 3)]]),
                             (1, 0): PolyMatrix.from_rows([[Fraction(3, 2)]]),
                             (1, 2): PolyMatrix.from_rows([[-1]])}
    assert all(type(m) is PolyMatrix for m in bundle.gluing.values())


def test_bundle_keeps_constant_polymatrices_and_refuses_others():
    trivial = UnitCochain2.trivial(N3, Qstar())
    g = PolyMatrix.from_rows([[2, Fraction(1, 3)], [0, -1]])
    assert TwistedBundle(2, N3, {(0, 1): g}, trivial).gluing[(0, 1)] is g
    for bad in (PolyMatrix.identity(3), PolyMatrix(2, 1, [1, 2]),
                PolyMatrix.from_rows([[MultiPoly.var("z"), 0], [0, 1]])):
        with pytest.raises(InvalidInputError):
            TwistedBundle(2, N3, {(0, 1): bad}, trivial)


def test_endomorphism_requires_valid_input():
    bad = TwistedBundle(2, N3, {(0, 1): [[1, 1], [0, 1]]},
                        UnitCochain2.trivial(N3, Qstar()))
    with pytest.raises(InvalidInputError):
        endomorphism_azumaya(bad)


# -- the i = 0 slice against full-scan oracles ---------------------------------------
#
# The oracles are the two checks as they were when they scanned every
# quadruple and every triple.  The library decides both identities on the
# i = 0 slice and must give the same (ok, where, detail) and raise the same
# exceptions.

def full_scan_2cocycle(alpha):
    g = alpha.group
    for i, j, k, l in product(alpha.nerve.indices(), repeat=4):
        word = g.op(g.op(alpha.value(j, k, l), g.inv(alpha.value(i, k, l))),
                    g.op(alpha.value(i, j, l), g.inv(alpha.value(i, j, k))))
        if word != g.identity():
            return CheckResult(False, (i, j, k, l),
                               f"cocycle identity fails on {(i, j, k, l)}")
    return CheckResult(True)


def full_scan_gluing(e):
    ident = PolyMatrix.identity(e.rank)
    for i in e.nerve.indices():
        if e.g(i, i) != ident:
            return CheckResult(False, (i, i), f"g_{i}{i} is not the identity")
    for i, j in product(e.nerve.indices(), repeat=2):
        if i != j and e.g(i, j) * e.g(j, i) != ident:
            return CheckResult(False, (i, j), f"g_{i}{j} is not inverse to g_{j}{i}")
    for i, j, k in product(e.nerve.indices(), repeat=3):
        lhs = e.g(k, i) * (e.g(j, k) * e.g(i, j))
        rhs = ident.scale(e.scalar_twist(i, j, k))
        if lhs != rhs:
            return CheckResult(False, (i, j, k),
                               f"twisted cocycle condition fails on {(i, j, k)}")
    return CheckResult(True)


def outcome(check, arg):
    try:
        res = check(arg)
    except Exception as exc:   # the exception is part of what must agree
        return type(exc), str(exc)
    return res.ok, res.where, res.detail


def assert_same(check, oracle, arg):
    assert outcome(check, arg) == outcome(oracle, arg)


GROUPS = (Qstar(), Mu(1), Mu(2), Mu(3), Mu(4), Mu(6))
FAULTS = ("none", "diagonal", "inverse", "entry", "non-scalar", "twist")


def distinct_triples(size):
    return [t for t in product(range(size), repeat=3) if len(set(t)) == 3]


def rand_unit(rng, group):
    if isinstance(group, Mu):
        return rng.randrange(group.n)
    return Fraction(rng.choice([1, 2, 3, 5, -1, -2]), rng.choice([1, 2, 3]))


def perturbed(alpha, triples, rng):
    """alpha times a non-identity unit on each triple (unchanged in mu_1)."""
    g = alpha.group
    values = dict(alpha.values)
    for t in triples:
        if isinstance(g, Mu):
            shift = rng.randrange(1, g.n) if g.n > 1 else 0
        else:
            shift = Fraction(rng.choice([2, -1, 3]), rng.choice([1, 5]))
        values[t] = g.op(alpha.value(*t), shift)
    return UnitCochain2(alpha.nerve, g, values)


def cocycle_cases(rng):
    for size in range(1, 7):
        nerve = CoverNerve(size)
        triples = distinct_triples(size)
        for group in GROUPS:
            alpha = coboundary(rand_cochain1(rng, nerve, group))
            yield alpha
            yield UnitCochain2(nerve, group, {t: rand_unit(rng, group) for t in triples})
            for t in triples:
                yield perturbed(alpha, [t], rng)
            if len(triples) >= 3:
                yield perturbed(alpha, rng.sample(triples, 3), rng)


def test_cocycle_slice_matches_full_scan_seeded():
    cases = list(cocycle_cases(random.Random(211)))
    assert sum(not full_scan_2cocycle(a).ok for a in cases) > len(cases) // 2
    for alpha in cases:
        assert_same(check_2cocycle, full_scan_2cocycle, alpha)


@st.composite
def unit_cochains(draw):
    size = draw(st.integers(1, 5))
    group = draw(st.sampled_from(GROUPS))
    nerve = CoverNerve(size)
    unit = (st.integers(0, group.n - 1) if isinstance(group, Mu)
            else st.builds(Fraction, st.sampled_from([1, 2, 3, -1, -2]),
                           st.sampled_from([1, 2, 3])))
    values = {}
    if draw(st.booleans()):     # near a coboundary, else arbitrary
        beta = {(i, j): draw(unit) for i in range(size) for j in range(i + 1, size)}
        values = dict(coboundary(Cochain1(nerve, group, beta)).values)
    triples = distinct_triples(size)
    if triples:
        values.update(draw(st.dictionaries(st.sampled_from(triples), unit,
                                           max_size=len(triples))))
    return UnitCochain2(nerve, group, values)


@settings(max_examples=300, deadline=None)
@given(unit_cochains())
def test_cocycle_slice_matches_full_scan_hypothesis(alpha):
    assert_same(check_2cocycle, full_scan_2cocycle, alpha)


def faulted(rng, bundle, kind):
    """The bundle with one fault of the given kind, or unchanged when the
    nerve is too small for it."""
    size, rank = bundle.nerve.index_count, bundle.rank
    gluing = {p: bundle.g(*p) for p in product(range(size), repeat=2) if p[0] != p[1]}
    twist = bundle.twist
    i, j = rng.sample(range(size), 2) if size >= 2 else (0, 0)
    if kind == "diagonal":
        k = rng.randrange(size)
        gluing[(k, k)] = PolyMatrix.identity(rank).scale(Fraction(rng.choice([2, -1])))
    elif kind == "inverse" and i != j:
        gluing[(i, j)] = gluing[(i, j)].scale(Fraction(rng.choice([2, -1, 3])))
    elif kind in ("entry", "non-scalar") and i != j:
        if kind == "entry":
            g = [list(gluing[(i, j)].row(p)) for p in range(rank)]
            g[rng.randrange(rank)][rng.randrange(rank)] += Fraction(1, rng.choice([1, 2, 3]))
            g = PolyMatrix.from_rows(g)
        else:
            p = PolyMatrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(rank)]
                                      for _ in range(rank)])
            g = gluing[(i, j)] * p
        if inverse(g) is not None:   # keep g_ij g_ji = I, so (3) must catch it
            gluing[(i, j)], gluing[(j, i)] = g, inverse(g)
    elif kind == "twist" and size >= 3:
        twist = perturbed(twist, [rng.choice(distinct_triples(size))], rng)
    return TwistedBundle(rank, bundle.nerve, gluing, twist)


def test_gluing_slice_matches_full_scan_seeded():
    rng = random.Random(223)
    verdicts = set()
    for group in GROUPS:
        for size in range(1, 6):
            for rank in (1, 2, 3) if size <= 4 else (1, 2):
                bundle = frame_bundle(rng, CoverNerve(size), rank, group)
                for kind in FAULTS:
                    e = faulted(rng, bundle, kind)
                    expected = outcome(full_scan_gluing, e)
                    assert outcome(twisted_gluing_check, e) == expected
                    verdicts.add(expected[0])
                    if rank <= 2 and expected[0] is True:
                        endo = endomorphism_azumaya(e)
                        assert_same(twisted_gluing_check, full_scan_gluing, endo)
    assert verdicts == {True, False, InvalidInputError}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(1, 5), st.integers(1, 2),
       st.sampled_from(FAULTS), st.integers(0, 2 ** 32))
def test_gluing_slice_matches_full_scan_hypothesis(group, size, rank, kind, seed):
    rng = random.Random(seed)
    e = faulted(rng, frame_bundle(rng, CoverNerve(size), rank, group), kind)
    assert_same(twisted_gluing_check, full_scan_gluing, e)


def coboundary_cases(rng):
    """mu_n cochains: coboundaries, perturbed coboundaries, cochains that are
    not alternating, and single triples."""
    for _ in range(230):
        size = rng.randint(1, 6)
        group = Mu(rng.choice([1, 2, 3, 4, 5, 6, 8, 12]))
        nerve = CoverNerve(size)
        triples = distinct_triples(size)
        alpha = coboundary(rand_cochain1(rng, nerve, group))
        yield alpha
        if triples:
            yield perturbed(alpha, rng.sample(triples, rng.randint(1, min(3, len(triples)))),
                            rng)
            t = rng.choice(triples)   # one value moved off its alternating images
            values = dict(alpha.values)
            values[t] = rng.randrange(group.n)
            yield UnitCochain2(nerve, group, values)
            yield UnitCochain2(nerve, group, {t: rng.randrange(group.n)})


def test_coboundary_decision_matches_cocycle_check(monkeypatch):
    # over a simplex's nerve, mu_n 2-cocycles and 2-coboundaries coincide;
    # the witness map is looked up only after a positive decision, and its
    # Smith normal form runs at most once per (nerve size, n)
    cached = twisted._witness_map
    cached.cache_clear()
    lookups = []
    monkeypatch.setattr(twisted, "_witness_map",
                        lambda size, n: lookups.append((size, n)) or cached(size, n))
    cases = list(coboundary_cases(random.Random(251)))
    assert len(cases) >= 600
    verdicts, keys = [], set()
    for alpha in cases:
        lookups.clear()
        builds = cached.cache_info().misses
        ok, witness = is_coboundary(alpha)
        assert ok == check_2cocycle(alpha).ok
        key = (alpha.nerve.index_count, alpha.group.n)
        assert lookups == ([key] if ok and key[0] > 2 else [])
        assert cached.cache_info().misses - builds == (bool(lookups) and key not in keys)
        keys.update(lookups)
        if ok:
            assert coboundary(witness) == alpha
        else:
            assert witness is None
        verdicts.append(ok)
    assert 100 <= sum(verdicts) <= len(cases) - 100
    assert cached.cache_info().misses == len(keys) >= 20


def test_mu3_twist_raises_exactly_when_inverses_hold():
    rng = random.Random(227)
    for kind in FAULTS:
        e = faulted(rng, frame_bundle(rng, N4, 2, Mu(3)), kind)
        raised = outcome(full_scan_gluing, e)[0] is InvalidInputError
        assert raised == (kind not in ("diagonal", "inverse"))
        assert_same(twisted_gluing_check, full_scan_gluing, e)


# -- work bounds of the slice checks ----------------------------------------------------

@pytest.mark.parametrize("size,rank", [(1, 2), (2, 1), (3, 2), (5, 2), (7, 3)])
def test_gluing_check_matrix_products_are_quadratic(monkeypatch, size, rank):
    bundle = frame_bundle(random.Random(229), CoverNerve(size), rank)
    calls = []
    mul = PolyMatrix.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(PolyMatrix, "__mul__", counting_mul)
    assert twisted_gluing_check(bundle).ok
    assert len(calls) <= size * (size - 1) // 2 + 2 * (size - 1) * (size - 2)


@pytest.mark.parametrize("group", [Qstar(), Mu(1), Mu(2)])
@pytest.mark.parametrize("size", [1, 2, 3, 5, 7])
def test_gluing_check_reads_the_twist_quadratically(monkeypatch, size, group):
    # the twist enters as scalars only on the 0-slice; every other triple is
    # the cocycle check's cone test on the stored values
    bundle = frame_bundle(random.Random(229), CoverNerve(size), 2, group)
    calls = []
    scalar_twist = TwistedBundle.scalar_twist

    def counting_scalar_twist(e, i, j, k):
        calls.append((i, j, k))
        return scalar_twist(e, i, j, k)

    monkeypatch.setattr(TwistedBundle, "scalar_twist", counting_scalar_twist)
    assert twisted_gluing_check(bundle).ok
    assert len(calls) <= size * size


class CountingDict(dict):
    """A stored value map that records every lookup."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("size", [1, 2, 5, 8])
def test_cocycle_check_evaluates_cubic_words(size):
    for group in (Qstar(), Mu(6)):
        alpha = coboundary(rand_cochain1(random.Random(233), CoverNerve(size), group))
        alpha.values = CountingDict(alpha.values)
        assert check_2cocycle(alpha).ok
        # one read per word on (0, j, k, l), plus the table of the alpha_0jk
        assert len(alpha.values.reads) <= size ** 3 + size ** 2


# -- Hilbert polynomials -----------------------------------------------------------------

def MultiPolyM():
    from azumaya.poly import MultiPoly
    return MultiPoly.var("m")


def test_line_bundle_series():
    for d in range(-3, 4):
        p = hilbert_poly(SheafOnP1((d,)), 1, [0])
        assert p == MultiPolyM() + (d + 1)


def test_torsion_constant():
    for r in range(1, 5):
        p = hilbert_poly(SheafOnP1((), r), 1, [0])
        assert p.degree_in("m") == 0
        assert str(p) == str(r)


def test_sum_additivity():
    p = hilbert_poly(SheafOnP1((2, -1)), 1, [0])
    assert p == 2 * MultiPolyM() + 3


def test_nontrivial_g():
    # F = O(1) + O(0), G = O(1) + O(0): four pairs
    p = hilbert_poly(SheafOnP1((1, 0)), 2, [1, 0])
    assert p == 4 * MultiPolyM() + 4
    # torsion contributes length * rank(G)
    pt = hilbert_poly(SheafOnP1((), 3), 2, [1, 0])
    assert str(pt) == "6"


def test_degree_equals_dim_random():
    rng = random.Random(181)
    for _ in range(60):
        nsum = rng.randint(0, 3)
        tor = rng.randint(0, 4)
        if nsum == 0 and tor == 0:
            tor = 1
        sheaf = SheafOnP1(tuple(rng.randint(-3, 3) for _ in range(nsum)), tor)
        grank = rng.randint(1, 3)
        p = hilbert_poly(sheaf, grank, [rng.randint(-2, 2) for _ in range(grank)])
        assert p.degree_in("m") == sheaf.dim()


def test_flat_family_constancy():
    rng = random.Random(191)
    for _ in range(20):
        length = rng.randint(1, 6)
        seen = set()
        for _ in range(4):
            npts = rng.randint(1, length)
            cuts = sorted(rng.sample(range(1, length), npts - 1)) if npts > 1 else []
            parts = [b - a for a, b in zip([0] + cuts, cuts + [length])]
            support = [(Fraction(rng.randint(-50, 50)), part) for part in parts]
            sheaf = SheafOnP1.torsion_at(support)
            seen.add(str(hilbert_poly(sheaf, 1, [0])))
        assert seen == {str(length)}


def test_morphism_hilbert_examples():
    m = MultiPolyM()
    assert morphism_hilbert_poly([(3, 0)]) == m + 4
    assert morphism_hilbert_poly([(0, 1)]) == 2 * m + 1
    assert morphism_hilbert_poly([(0, 1), (0, 1)]) == 4 * m + 2


# -- JSON codecs ---------------------------------------------------------------------------

def test_cochain_json_round_trip():
    rng = random.Random(193)
    for _ in range(20):
        g = Mu(rng.choice([2, 3, 4])) if rng.random() < 0.5 else Qstar()
        beta = rand_cochain1(rng, N4, g)
        alpha = coboundary(beta)
        assert cochain_from_json(cochain_to_json(alpha), "ijk") == alpha
        assert cochain_from_json(cochain_to_json(beta), "ij") == beta


def test_json_rejects_floats():
    doc = {"group": "qstar", "indices": 3,
           "values": [{"ijk": [0, 1, 2], "v": 0.5}]}
    with pytest.raises(InvalidInputError):
        cochain_from_json(doc, "ijk")
