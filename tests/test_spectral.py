import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya.diffop import MixedOperator, mixed_mul
from azumaya.errors import NotAdmissibleError, ShapeError
from azumaya import linalg
from azumaya.linalg import PolyMatrix, SpanBasis, divides_in_v
from azumaya.poly import MultiPoly, parse_poly
from azumaya.spectral import (HiggsPair, KernelProbe, LambdaConnectionFamily, LeibnizCheck,
                              MorphismPresentation, commutativity_admissible,
                              curvature, curvature_via_operators,
                              higgs_to_morphism, image_ideal,
                              lambda_connection_check,
                              lambda_family, morphism_to_higgs, spectral_cover,
                              subalgebra_closed)
from azumaya.suites import rand_commuting_pair, rand_poly_matrix
from test_linalg import fraction_rref, nullspace_from_rref

z = MultiPoly.var("z")
v = MultiPoly.var("v")


def companion(p):
    return PolyMatrix.from_rows([[0, p], [1, 0]])


# -- admissibility ---------------------------------------------------------------

def test_single_generator_always_admissible():
    rng = random.Random(83)
    for _ in range(10):
        phi = rand_poly_matrix(rng, 2, ("z",), deg=2)
        assert commutativity_admissible(HiggsPair(2, [phi]))


def test_noncommuting_pair():
    pair = HiggsPair(2, [PolyMatrix.from_rows([[0, 1], [0, 0]]),
                         PolyMatrix.from_rows([[0, 0], [1, 0]])])
    assert not commutativity_admissible(pair)
    with pytest.raises(NotAdmissibleError):
        higgs_to_morphism(pair)


def test_diagonal_pair_admissible():
    pair = HiggsPair(2, [PolyMatrix.from_rows([[1, 0], [0, 2]]),
                         PolyMatrix.from_rows([["z", 0], [0, 3]])])
    assert commutativity_admissible(pair)


# -- subalgebra closure ------------------------------------------------------------

def test_closure_zero_generator():
    pres = higgs_to_morphism(HiggsPair(2, [PolyMatrix.zeros(2)]))
    assert len(pres.subalgebra_basis) == 1
    assert pres.subalgebra_basis[0] == PolyMatrix.identity(2)


def test_closure_companion():
    pres = higgs_to_morphism(HiggsPair(2, [companion(z)]))
    assert len(pres.subalgebra_basis) == 2
    assert subalgebra_closed(pres)


def test_closure_split_diagonal():
    pres = higgs_to_morphism(HiggsPair(2, [PolyMatrix.from_rows([["z", 0], [0, "z^2"]])]))
    assert len(pres.subalgebra_basis) == 2
    assert subalgebra_closed(pres)


def test_closure_random_is_closed():
    rng = random.Random(89)
    for _ in range(15):
        r = rng.choice([2, 3])
        pair = HiggsPair(r, rand_commuting_pair(rng, r))
        pres = higgs_to_morphism(pair)
        assert subalgebra_closed(pres)
        assert len(pres.subalgebra_basis) <= r * r


# -- the closure and closedness certificates against the forced fallback -----------

def diag(*entries):
    return PolyMatrix.from_rows([[e if i == j else 0 for j in range(len(entries))]
                                 for i, e in enumerate(entries)])


def conjugate(mats, rng):
    """P * M * P^-1 for each M, with one random unimodular integer P."""
    r = mats[0].rows
    p = q = PolyMatrix.identity(r)
    for _ in range(3 if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        c = rng.choice([-2, -1, 1, 2])
        e = [[int(a == b) for b in range(r)] for a in range(r)]
        e[i][j] = c
        p = p * PolyMatrix.from_rows(e)
        e[i][j] = -c
        q = PolyMatrix.from_rows(e) * q
    return [p * m * q for m in mats]


def closure_case(rng):
    """(r, commuting generators, base variables): random, derogatory, scalar,
    zero, block-repeated, rational, over two base variables, a generator
    z * e_1 beside e_1 (dependent over Q(z), independent at z0 = 0), or the
    units of the upper right 2 x 2 block at r = 4, whose closure has
    dimension 5 > r."""
    kind = rng.randrange(10)
    root = lambda: z * rng.randint(-2, 2) + rng.randint(-2, 2)
    if kind == 0:
        r = rng.choice([1, 2, 3])
        return r, rand_commuting_pair(rng, r), ("z",)
    if kind == 1:
        r = rng.randint(1, 3)
        return r, [rand_poly_matrix(rng, r, ("z",), deg=rng.randint(0, 2))], ("z",)
    if kind == 2:
        # diagonal with a repeated entry, and a second diagonal generator
        r = rng.randint(2, 4)
        a, b = root(), root()
        first = diag(*([a, a] + [b] * (r - 2)))
        return r, conjugate([first, diag(*(root() for _ in range(r)))], rng), ("z",)
    if kind == 3:
        r = rng.randint(1, 3)
        scalar = PolyMatrix.identity(r).scale(root())
        return r, [scalar] + [rand_poly_matrix(rng, r, ("z",), deg=1)] * rng.randint(0, 1), ("z",)
    if kind == 4:
        r = rng.randint(1, 3)
        phi = rand_poly_matrix(rng, r, ("z",), deg=1)
        return r, rng.choice([[PolyMatrix.zeros(r)], [phi, PolyMatrix.zeros(r)]]), ("z",)
    if kind == 5:
        # diag(X, X) commutes with the block swap; or a generator listed twice
        x = rand_poly_matrix(rng, 2, ("z",), deg=1)
        block = PolyMatrix.from_rows([[x[i % 2, j % 2] if i // 2 == j // 2 else 0
                                       for j in range(4)] for i in range(4)])
        swap = PolyMatrix.from_rows([[int((i + 2) % 4 == j) for j in range(4)] for i in range(4)])
        return 4, rng.choice([[block, swap], [block, block], [swap, swap]]), ("z",)
    if kind == 6:
        r = rng.randint(2, 3)
        phi, psi = rand_commuting_pair(rng, r)
        return r, [phi.scale(Fraction(rng.randint(1, 5), rng.choice([2, 3, 7]))), psi], ("z",)
    if kind == 7:
        r = rng.randint(2, 3)
        phi = rand_poly_matrix(rng, r, ("w", "z"), deg=1)
        return r, [phi, phi * phi + phi.scale(rng.randint(-2, 2))], ("w", "z")
    if kind == 8:
        r = rng.randint(2, 3)
        return r, conjugate([diag(*([z * root()] + [0] * (r - 1))),
                             diag(*([1] + [0] * (r - 1)))], rng), ("z",)
    units = [PolyMatrix.from_rows([[root() if (i, j) == (a, b) else 0 for j in range(4)]
                                   for i in range(4)]) for a in (0, 1) for b in (2, 3)]
    return 4, conjugate(rng.sample(units, rng.randint(2, 4)), rng), ("z",)


def hand_built(pres, rng):
    """A presentation built by hand from ``pres``, mostly not closed: the
    basis cut short, its last element replaced by a multiple of the one
    before it or by a random matrix, or the generators replaced by one."""
    basis, gens = pres.subalgebra_basis, pres.generator_images
    x = rand_poly_matrix(rng, basis[0].rows, ("z",), deg=1)
    kind = rng.randrange(4) if len(basis) > 1 else 3
    if kind == 3:
        return MorphismPresentation((x,), basis)
    last = (), (basis[-2].scale(2),), (x,)
    return MorphismPresentation(gens, basis[:-1] + last[kind])


def test_closure_and_closedness_match_the_forced_fallback(monkeypatch):
    rng = random.Random(107)
    cases = [closure_case(rng) for _ in range(520)]

    def answers():
        rng = random.Random(109)
        out = []
        for r, phis, base_vars in cases:
            pres = higgs_to_morphism(HiggsPair(r, phis, base_vars))
            out.append((pres.subalgebra_basis, subalgebra_closed(pres),
                        subalgebra_closed(hand_built(pres, rng))))
        return out
    certified = answers()
    monkeypatch.setattr(linalg, "_POINTS", ())
    assert certified == answers()
    assert all(closed for _, closed, _ in certified)
    # every basis is independent and spans the generators
    for (_, phis, _), (basis, _, _) in zip(cases, certified):
        span = SpanBasis()
        assert all(span.add(list(b.entries)) for b in basis)
        assert all(span.contains(list(g.entries)) for g in phis)
    # both answers occur on hand-built presentations
    assert {closed for _, _, closed in certified} == {True, False}


def test_a_certified_generator_needs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("exact elimination reached")
    monkeypatch.setattr(SpanBasis, "add", refuse)
    monkeypatch.setattr(SpanBasis, "contains", refuse)
    # z I + N for a conjugated nilpotent Jordan block N: certified at z0 = 0;
    # the product phi * phi repeats the generator phi^2
    n, = conjugate([PolyMatrix.from_rows([[int(i == j + 1) for j in range(5)]
                                          for i in range(5)])], random.Random(113))
    phi = n + PolyMatrix.identity(5).scale(z)
    powers = [PolyMatrix.identity(5)]
    for _ in range(4):
        powers.append(powers[-1] * phi)
    pres = higgs_to_morphism(HiggsPair(5, [phi, powers[2]]))
    assert pres.subalgebra_basis == tuple(powers)
    assert subalgebra_closed(pres)


def test_a_point_spoiled_by_the_fallback_certifies_nothing_more(monkeypatch):
    # z * e_1 is 0 at z0 = 0, so the elimination keeps it; e_1 then enlarges
    # the span at z0 = 0 but depends on z * e_1 over Q(z)
    monkeypatch.setattr(linalg, "_POINTS", (0,))
    ze1, e1 = diag(z, 0, 0), diag(1, 0, 0)
    pres = higgs_to_morphism(HiggsPair(3, [ze1, e1]))
    assert pres.subalgebra_basis == (PolyMatrix.identity(3), ze1)
    assert subalgebra_closed(pres)


# -- round trip ---------------------------------------------------------------------

def test_round_trip_companion():
    pair = HiggsPair(2, [companion(z)])
    assert morphism_to_higgs(higgs_to_morphism(pair)).phis == pair.phis


def test_round_trip_random():
    rng = random.Random(97)
    for _ in range(30):
        r = rng.choice([2, 3])
        pair = HiggsPair(r, rand_commuting_pair(rng, r))
        back = morphism_to_higgs(higgs_to_morphism(pair))
        assert back.phis == pair.phis


def test_round_trip_empty_generators():
    pair = HiggsPair(2, [])
    pres = higgs_to_morphism(pair)
    assert pres.generator_images == ()
    assert len(pres.subalgebra_basis) == 1
    back = morphism_to_higgs(pres)
    assert back.phis == ()


def test_morphism_to_higgs_checks_commutativity():
    pres = MorphismPresentation(
        (PolyMatrix.from_rows([[0, 1], [0, 0]]),
         PolyMatrix.from_rows([[0, 0], [1, 0]])),
        (PolyMatrix.identity(2),))
    with pytest.raises(NotAdmissibleError):
        morphism_to_higgs(pres)


# -- covers and image ideals -----------------------------------------------------------

def test_cover_companion():
    p = parse_poly("z^3 - z")
    cover = spectral_cover(HiggsPair(2, [companion(p)]))
    assert cover.poly == v ** 2 - p
    assert cover.reduced


def test_cover_squarefree_flags():
    # v^2 - z^2 = (v - z)(v + z) has distinct roots, hence squarefree
    sq = spectral_cover(HiggsPair(2, [companion(z ** 2)]))
    assert sq.poly == v ** 2 - z ** 2 and sq.reduced
    assert not spectral_cover(HiggsPair(2, [PolyMatrix.zeros(2)])).reduced
    assert spectral_cover(HiggsPair(2, [PolyMatrix.from_rows([[1, 0], [0, 2]])])).reduced


def test_image_ideal_examples():
    nu = Fraction(4)
    scalar = HiggsPair(2, [PolyMatrix.identity(2).scale(nu)])
    assert image_ideal(scalar) == v - 4
    assert spectral_cover(scalar).poly == (v - 4) ** 2
    nilp = HiggsPair(2, [PolyMatrix.from_rows([[1, 1], [0, 1]])])
    assert image_ideal(nilp) == (v - 1) ** 2
    diag = HiggsPair(2, [PolyMatrix.from_rows([[1, 0], [0, 2]])])
    assert image_ideal(diag) == spectral_cover(diag).poly


def test_image_divides_cover_random_with_equality_iff_squarefree():
    rng = random.Random(101)
    saw_equal = saw_proper = False
    for _ in range(40):
        r = rng.choice([2, 3])
        phi = rand_poly_matrix(rng, r, ("z",), deg=2)
        if rng.random() < 0.3:
            phi = PolyMatrix.identity(r).scale(parse_poly("z")) \
                if rng.random() < 0.5 else phi * phi
        pair = HiggsPair(r, [phi])
        cover = spectral_cover(pair)
        ideal = image_ideal(pair)
        assert divides_in_v(ideal, cover.poly)
        if cover.reduced:
            assert ideal == cover.poly
            saw_equal = True
        elif ideal != cover.poly:
            saw_proper = True
    assert saw_equal and saw_proper


# -- curvature ---------------------------------------------------------------------

def test_curvature_one_variable_empty():
    assert curvature([PolyMatrix.from_rows([["z", 1], [0, 1]])], ("z",)) == {}


def test_curvature_zero_connections():
    field = curvature([PolyMatrix.zeros(2), PolyMatrix.zeros(2)])
    assert list(field) == [(0, 1)] and field[(0, 1)].is_zero()


def test_curvature_known_value():
    w2 = MultiPoly.var("w2")
    g1 = PolyMatrix.from_rows([[0, w2], [0, 0]])
    field = curvature([g1, PolyMatrix.zeros(2)])
    assert field[(0, 1)] == PolyMatrix.from_rows([[0, -1], [0, 0]])


def test_curvature_matches_operator_commutators():
    rng = random.Random(103)
    for _ in range(25):
        gs = [rand_poly_matrix(rng, 2, ("w1", "w2"), deg=2) for _ in range(2)]
        assert curvature(gs) == curvature_via_operators(gs)


def test_flat_iff_commuting_operators():
    w1, w2 = MultiPoly.var("w1"), MultiPoly.var("w2")
    # flat abelian pair: both diagonal with matching cross-derivatives
    flat_pair = [PolyMatrix.from_rows([[w2, 0], [0, w1]]),
                 PolyMatrix.from_rows([[w1, 0], [0, w2]])]
    assert all(m.is_zero() for m in curvature(flat_pair).values())
    assert all(m.is_zero() for m in curvature_via_operators(flat_pair).values())
    # curved pair: unmatched derivative
    curved = [PolyMatrix.from_rows([[w2, 0], [0, 0]]), PolyMatrix.zeros(2)]
    field = curvature(curved)
    ops = curvature_via_operators(curved)
    assert field == ops
    assert not all(m.is_zero() for m in field.values())


# -- lambda connections ---------------------------------------------------------------

def test_lambda_connection_restriction_ok():
    phi = companion(z)
    fam = LambdaConnectionFamily(phi, 2)
    assert lambda_connection_check(fam, phi).ok


def test_lambda_connection_with_lambda_terms():
    phi = companion(z)
    lam = MultiPoly.var("lam")
    a = PolyMatrix(2, 2, [e + lam * MultiPoly.const(k) for k, e in enumerate(phi.entries)])
    assert lambda_connection_check(LambdaConnectionFamily(a, 2), phi).ok


def test_lambda_connection_failure_names_entry():
    phi = companion(z)
    bad = PolyMatrix.from_rows([[1, "z"], [1, 0]])
    chk = lambda_connection_check(LambdaConnectionFamily(bad, 2), phi)
    assert not chk.ok
    assert chk.entry == (0, 0)
    assert "(0, 0)" in chk.detail


def leibniz_reference(fam, phi):
    """``lambda_connection_check`` with the lam-scaled Leibniz identity
    nabla(z e_j) = lam e_j + z nabla(e_j) checked entry by entry."""
    at_zero = fam.a.subs({"lam": Fraction(0)})
    for i in range(fam.r):
        for j in range(fam.r):
            if at_zero[i, j] != phi[i, j]:
                return LeibnizCheck(
                    False,
                    f"restriction at lam = 0 differs at entry ({i}, {j}): "
                    f"{at_zero[i, j]} vs {phi[i, j]}",
                    (i, j))
    lam = MultiPoly.var("lam")

    def nabla(section):
        return [lam * s.derivative("z") +
                sum((fam.a[i, j] * section[j] for j in range(fam.r)), MultiPoly.zero())
                for i, s in enumerate(section)]

    for j in range(fam.r):
        e = [MultiPoly.const(1) if i == j else MultiPoly.zero() for i in range(fam.r)]
        lhs = nabla([z * s for s in e])
        step = nabla(e)
        rhs = [lam * e[i] + z * step[i] for i in range(fam.r)]
        for i in range(fam.r):
            if lhs[i] != rhs[i]:
                return LeibnizCheck(
                    False, f"Leibniz identity fails at section {j}, row {i}", (i, j))
    return LeibnizCheck(True, "flatness is automatic on a one-variable base")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3]), st.booleans())
def test_lambda_connection_check_matches_the_entrywise_leibniz_check(seed, r, restricts):
    # A = phi + lam B + lam^2 C; a family that does not restrict to phi
    # exercises the restriction report, which must match byte for byte
    rng = random.Random(seed)
    lam = MultiPoly.var("lam")
    phi, b, c = (rand_poly_matrix(rng, r, ("z",), deg=2) for _ in range(3))
    a = PolyMatrix(r, r, [p + lam * q + lam ** 2 * s
                          for p, q, s in zip(phi.entries, b.entries, c.entries)])
    if not restricts:
        phi = rand_poly_matrix(rng, r, ("z",), deg=2)
    fam = LambdaConnectionFamily(a, r)
    assert lambda_connection_check(fam, phi) == leibniz_reference(fam, phi)


# -- the quantum family -----------------------------------------------------------------

def test_family_classical_fiber():
    fam = lambda_family(HiggsPair(2, [companion(z)]))
    fiber = fam.evaluate(0)
    assert fiber["cover"].poly == v ** 2 - z
    assert fiber["image_ideal"] == v ** 2 - z


def test_family_probe_injective():
    fam = lambda_family(HiggsPair(2, [companion(z)]))
    probe = fam.evaluate(1, 3)
    assert probe.injective and probe.monomials == 10


def test_family_probe_zero_generator():
    fam = lambda_family(HiggsPair(2, [PolyMatrix.zeros(2)]))
    assert fam.evaluate(0)["cover"].poly == v ** 2
    assert fam.probe(1, 3).injective


def test_family_probe_random():
    rng = random.Random(107)
    for _ in range(5):
        phi = rand_poly_matrix(rng, 2, ("z",), deg=2)
        fam = lambda_family(HiggsPair(2, [phi]))
        assert fam.probe(Fraction(rng.choice([1, 2, -1])), 2).injective


def _probe_by_elimination(phi, lam, degree):
    """Reference probe: the images z^a p^b of w^a p^b as rational vectors,
    one coordinate per (D-degree, entry, power of z), and their kernel by
    elimination over Q.  p^b is built by multiplying from the left."""
    r = phi.rows
    pop = (MixedOperator.derivation(0, r) * lam + MixedOperator.from_matrix(phi))
    ppows = [MixedOperator.from_matrix(PolyMatrix.identity(r))]
    for _ in range(degree):
        ppows.append(mixed_mul(pop, ppows[-1]))
    images = [(a, ppows[t - a]) for t in range(degree + 1) for a in range(t + 1)]
    equations = {}
    for u, (a, power) in enumerate(images):
        for k, m in power.coeffs.items():
            for idx, e in enumerate(m.entries):
                for deg, c in enumerate((z ** a * e).coefficients_in("z")):
                    if not c.is_zero():
                        row = equations.setdefault((k, idx, deg), [Fraction(0)] * len(images))
                        row[u] = c.as_fraction()
    red, pivots = fraction_rref(list(equations.values()))
    kdim = len(nullspace_from_rref(red, pivots, len(images)))
    return KernelProbe(degree, len(images), len(images) - kdim, kdim)


def test_probe_matches_elimination_oracle():
    rng = random.Random(113)
    for t in range(15):
        r = 1 + t % 3
        phi = rand_poly_matrix(rng, r, ("z",), deg=rng.randint(0, 2))
        lam = rng.choice([Fraction(1), Fraction(-1), Fraction(2),
                          Fraction(-2, 3), Fraction(1, 2)])
        degree = rng.randint(1, 7 - r)
        probe = lambda_family(HiggsPair(r, [phi])).probe(lam, degree)
        assert probe == _probe_by_elimination(phi, lam, degree)


def test_probe_degree_zero_and_negative():
    fam = lambda_family(HiggsPair(2, [companion(z)]))
    assert fam.probe(1, 0) == KernelProbe(0, 1, 1, 0)
    with pytest.raises(ShapeError):
        fam.probe(1, -1)


@st.composite
def families(draw):
    """An r x r matrix, r = 1..4, of polynomials in z of degree <= 2 with
    coefficients p/q, q <= 3, and a rational lam != 0."""
    r = draw(st.integers(1, 4))
    coeff = st.fractions(-3, 3, max_denominator=3)
    entries = [MultiPoly(("z",), {(k,): c for k, c in enumerate(draw(st.lists(coeff, max_size=3)))})
               for _ in range(r * r)]
    lam = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    return PolyMatrix(r, r, entries), lam


@settings(max_examples=20, deadline=None)
@given(families(), st.integers(0, 6))
def test_powers_of_p_lead_with_lam_power_times_identity(family, top):
    # the theorem behind LambdaFamily.probe: (lam*D + Phi)^b has D-degree b
    # and top coefficient lam^b * I, whatever Phi is
    phi, lam = family
    r = phi.rows
    pop = MixedOperator.derivation(0, r) * lam + MixedOperator.from_matrix(phi)
    power = MixedOperator.from_matrix(PolyMatrix.identity(r))
    for b in range(top + 1):
        assert max(power.coeffs) == (b,)
        assert power.coeffs[(b,)] == PolyMatrix.identity(r).scale(lam ** b)
        power = mixed_mul(power, pop)


def test_family_needs_single_generator():
    with pytest.raises(ShapeError):
        lambda_family(HiggsPair(2, [PolyMatrix.zeros(2), PolyMatrix.zeros(2)]))


def test_image_divides_cover_helper():
    pair = HiggsPair(2, [companion(z)])
    assert divides_in_v(image_ideal(pair), spectral_cover(pair).poly)


def test_cover_poly_annihilates_generator():
    from azumaya.linalg import eval_poly_at_matrix
    rng = random.Random(109)
    for _ in range(15):
        r = rng.choice([2, 3])
        phi = rand_poly_matrix(rng, r, ("z",), deg=2)
        cover = spectral_cover(HiggsPair(r, [phi]))
        assert eval_poly_at_matrix(cover.poly, "v", phi).is_zero()


def test_base_ring_validated():
    with pytest.raises(ShapeError):
        HiggsPair(2, [PolyMatrix.from_rows([[0, "w1"], [1, 0]])], ("z",))
    HiggsPair(2, [PolyMatrix.from_rows([[0, "w1"], [1, 0]])], ("w1",))
