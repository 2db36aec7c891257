"""Acceptance criteria, one test per criterion, all exact (tolerance 0).

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any assertion failure marks the criterion failed.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from azumaya import diffop, spectral, twisted, weyl
from azumaya.cli import main as cli_main
from azumaya.linalg import PolyMatrix, SpanBasis, char_poly
from azumaya.poly import MultiPoly
from azumaya.suites import (rand_cochain1, rand_commuting_pair,
                            rand_discriminant_zero, rand_poly_matrix,
                            rand_position_poly, rand_weyl)

GOLDEN = Path(__file__).parent / "golden" / "example-5-1-11.json"
E12 = PolyMatrix.from_rows([[0, 1], [0, 0]])


def _stamp(num, name, t0):
    print(f"\nACCEPTANCE {num} {name}: PASS ({time.monotonic() - t0:.2f}s)")


def test_criterion_1_fundamental_solution_reproduction():
    t0 = time.monotonic()
    rng = random.Random(2024)
    instances = [(E12, Fraction(1))]
    while len(instances) < 11:
        a = rand_discriminant_zero(rng)
        instances.append((a, Fraction(rng.choice([1, 2, -1, 3]))))
    for a, lam in instances:
        basis = diffop.fundamental_solutions(a, lam)
        assert len(basis) == 4
        for b in basis:
            assert diffop.commutation_constraint(a, b, lam).is_zero()
        bound = 2 * max(e.total_degree() for e in a.entries) + 2
        solved = diffop.solve_commutation(a, lam, bound)
        assert len(solved) == 4
        span = SpanBasis()
        for m in solved:
            span.add(list(m.entries))
        assert all(span.contains(list(b.entries)) for b in basis)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 exceeded 5 s ({elapsed:.2f}s)"
    _stamp(1, "fundamental solutions + solver span (exact, < 5 s)", t0)


def test_criterion_2_degree0_and_charpoly_claims():
    t0 = time.monotonic()
    rng = random.Random(2025)
    for _ in range(50):
        a = rand_discriminant_zero(rng)
        lam = Fraction(rng.choice([1, 2, -1]))
        basis = diffop.fundamental_solutions(a, lam)
        bhat = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        b = PolyMatrix.zeros(2)
        for c, mat in zip(bhat, basis):
            b = b + mat.scale(c)
        b0 = PolyMatrix.from_rows([[bhat[0], bhat[1]], [bhat[2], bhat[3]]])
        degree0 = b.map_entries(
            lambda e: MultiPoly.const(e.subs({"z": Fraction(0)}).as_fraction()
                                      if not e.is_zero() else 0))
        assert degree0 == b0
        cp = char_poly(b)
        assert cp == char_poly(b0)
        assert set(cp.vars) <= {"v"}
    _stamp(2, "degree-0 term and characteristic polynomial (exact)", t0)


def test_criterion_3_higgsing_trichotomy_grid():
    t0 = time.monotonic()
    rng = random.Random(2026)
    a_choices = [E12, rand_discriminant_zero(rng), rand_discriminant_zero(rng)]
    count = 0
    for a in a_choices:
        lam = Fraction(1)
        # distinct rational eigenvalues: four instances
        for d1, d2 in [(0, 1), (1, 2), (-1, 3), (2, 5)]:
            rep = diffop.pushforward_report(a, [Fraction(d1), 0, 0, Fraction(d2)], lam)
            assert rep.case_tag == diffop.CASE_DISTINCT
            assert rep.eigenvalues == (Fraction(min(d1, d2)), Fraction(max(d1, d2)))
            assert [c.rank for c in rep.components] == [1, 1]
            assert sum(c.rank for c in rep.components) == 2
            count += 1
        # repeated semisimple: three instances
        for nu in (0, 1, -2):
            rep = diffop.pushforward_report(a, [Fraction(nu), 0, 0, Fraction(nu)], lam)
            assert rep.case_tag == diffop.CASE_SEMISIMPLE
            assert rep.kernel_ideal_gen == MultiPoly.var("v") - nu
            assert rep.components[0].rank == 2
            assert not rep.filtration_flag
            count += 1
        # repeated non-diagonalizable: three instances
        for nu, c in [(1, 1), (0, 2), (-1, 1)]:
            rep = diffop.pushforward_report(
                a, [Fraction(nu), Fraction(c), 0, Fraction(nu)], lam)
            assert rep.case_tag == diffop.CASE_NILPOTENT
            assert rep.kernel_ideal_gen == (MultiPoly.var("v") - nu) ** 2
            assert rep.filtration_flag
            assert rep.components[0].rank == 1
            count += 1
    assert count == 30
    _stamp(3, "Higgsing classification trichotomy on a 30-instance grid (exact)", t0)


def test_criterion_4_weyl_engine():
    t0 = time.monotonic()
    rng = random.Random(2027)
    for _ in range(200):
        n = rng.choice([1, 2])
        lam = Fraction(rng.choice([1, 2, -1]))
        d1, d2 = rand_weyl(rng, n, lam), rand_weyl(rng, n, lam)
        f = rand_position_poly(rng, n, deg=5)
        assert weyl.act_on_polynomial(weyl.weyl_mul(d1, d2), f) == \
            weyl.act_on_polynomial(d1, weyl.act_on_polynomial(d2, f))
    for _ in range(100):
        n = rng.choice([1, 2])
        a, b, c = (rand_weyl(rng, n) for _ in range(3))
        assert weyl.weyl_mul(weyl.weyl_mul(a, b), c) == \
            weyl.weyl_mul(a, weyl.weyl_mul(b, c))
    done = 0
    while done < 100:
        n = rng.choice([1, 2])
        d = rand_weyl(rng, n, with_lam=True)
        if d.is_zero():
            continue
        done += 1
        cert = weyl.reduce_to_scalar(d)
        assert not cert.final_scalar.is_zero()
        replay = cert.replay(d)
        assert replay.terms == {((0,) * n, (0,) * n): cert.final_scalar}
    for _ in range(100):
        n = rng.choice([1, 2])
        a, b = rand_weyl(rng, n), rand_weyl(rng, n)
        assert weyl.fourier(weyl.weyl_mul(a, b)) == \
            weyl.weyl_mul(weyl.fourier(a), weyl.fourier(b))
        out = a
        for _ in range(4):
            out = weyl.fourier(out)
        assert out == a
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 4 exceeded 10 s ({elapsed:.2f}s)"
    _stamp(4, "Weyl engine: action oracle, associativity, certificates, Fourier (< 10 s)", t0)


def test_criterion_5_lambda_family_dichotomy():
    t0 = time.monotonic()
    rng = random.Random(2028)
    for _ in range(100):
        n = rng.choice([1, 2])
        a = weyl.specialize_lambda(rand_weyl(rng, n, with_lam=True), 0)
        b = weyl.specialize_lambda(rand_weyl(rng, n, with_lam=True), 0)
        assert weyl.weyl_mul(a, b) == weyl.weyl_mul(b, a)
    lam_var = MultiPoly.var("lam")
    for _ in range(100):
        n = rng.choice([1, 2])
        d = rand_weyl(rng, n, with_lam=True)
        c = MultiPoly.zero()
        for k in range(3):
            c = c + Fraction(rng.randint(-2, 2)) * lam_var ** k
        assert d.scale(c).is_zero() == (c.is_zero() or d.is_zero())
    for _ in range(10):
        phi = rand_poly_matrix(rng, 2, ("z",), deg=2)
        fam = spectral.lambda_family(spectral.HiggsPair(2, [phi]))
        probe = fam.probe(Fraction(1), 3)
        assert probe.injective
        fiber = fam.evaluate(0)
        assert fiber["cover"].poly == char_poly(phi)
    _stamp(5, "lambda-family dichotomy: commutative fiber, no torsion, kernel probe (exact)", t0)


def test_criterion_6_spectral_correspondence():
    t0 = time.monotonic()
    rng = random.Random(2029)
    for _ in range(50):
        r = rng.choice([2, 3])
        pair = spectral.HiggsPair(r, rand_commuting_pair(rng, r))
        pres = spectral.higgs_to_morphism(pair)
        back = spectral.morphism_to_higgs(pres)
        assert back.phis == pair.phis
    for _ in range(50):
        r = rng.choice([2, 3])
        phi = rand_poly_matrix(rng, r, ("z",), deg=2)
        if rng.random() < 0.35:
            phi = phi * phi if rng.random() < 0.5 else \
                PolyMatrix.identity(r).scale(MultiPoly.var("z"))
        single = spectral.HiggsPair(r, [phi])
        cover = spectral.spectral_cover(single)
        ideal = spectral.image_ideal(single)
        from azumaya.linalg import divides_in_v
        assert divides_in_v(ideal, cover.poly)
        assert (ideal == cover.poly) == cover.reduced
    _stamp(6, "spectral correspondence: round trip and ideal/cover divisibility (exact)", t0)


def test_criterion_7_cocycle_suites():
    t0 = time.monotonic()
    rng = random.Random(2030)
    for _ in range(500):
        size = rng.randint(2, 5)
        nerve = twisted.CoverNerve(size)
        group = twisted.Mu(rng.choice([2, 3, 4, 6])) if rng.random() < 0.5 \
            else twisted.Qstar()
        beta = rand_cochain1(rng, nerve, group)
        assert twisted.check_2cocycle(twisted.coboundary(beta)).ok
    for _ in range(100):
        size = rng.randint(3, 4)
        nerve = twisted.CoverNerve(size)
        beta = rand_cochain1(rng, nerve, twisted.Qstar())
        alpha = twisted.coboundary(beta)
        r = rng.choice([1, 2])
        gluing = {}
        for i in range(size):
            for j in range(size):
                if i != j:
                    b = beta.value(i, j)
                    gluing[(i, j)] = [[b if p == q else Fraction(0)
                                       for q in range(r)] for p in range(r)]
        bundle = twisted.TwistedBundle(r, nerve, gluing, alpha)
        assert twisted.twisted_gluing_check(bundle).ok
        bad = {k: [list(row) for row in m] for k, m in gluing.items()}
        i, j = rng.choice([(0, 1), (1, 2), (0, 2)])
        bad[(i, j)][rng.randrange(r)][rng.randrange(r)] += Fraction(1, 2)
        assert not twisted.twisted_gluing_check(
            twisted.TwistedBundle(r, nerve, bad, alpha)).ok
    for _ in range(100):
        size = rng.randint(3, 4)
        nerve = twisted.CoverNerve(size)
        beta = rand_cochain1(rng, nerve, twisted.Qstar())
        alpha = twisted.coboundary(beta)
        frames = []   # (F, F^-1), the inverse by the adjugate
        for _ in range(size):
            while True:
                p = [[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                     for _ in range(2)]
                (a, b), (c, d) = p
                det = a * d - b * c
                if det:
                    frames.append((PolyMatrix.from_rows(p),
                                   PolyMatrix.from_rows([[d, -b], [-c, a]]).scale(1 / det)))
                    break
        gluing = {}
        for i in range(size):
            for j in range(size):
                if i != j:
                    base = frames[j][0] * frames[i][1]
                    gluing[(i, j)] = base.scale(beta.value(i, j))
        bundle = twisted.TwistedBundle(2, nerve, gluing, alpha)
        assert twisted.twisted_gluing_check(bundle).ok
        endo = twisted.endomorphism_azumaya(bundle)
        assert twisted.twisted_gluing_check(endo).ok
        assert endo.twist.is_trivial()
    for n in (2, 3, 4):
        for _ in range(20):
            size = rng.randint(2, 5)
            nerve = twisted.CoverNerve(size)
            beta = rand_cochain1(rng, nerve, twisted.Mu(n))
            alpha = twisted.coboundary(beta)
            ok, witness = twisted.is_coboundary(alpha)
            assert ok
            assert twisted.coboundary(witness) == alpha
    _stamp(7, "cocycle suites: dd, gluing, endomorphism descent, witnesses (exact)", t0)


def test_criterion_8_hilbert_polynomials():
    t0 = time.monotonic()
    m = MultiPoly.var("m")
    for d in range(-3, 4):
        assert twisted.hilbert_poly(twisted.SheafOnP1((d,)), 1, [0]) == m + d + 1
    rng = random.Random(2031)
    for _ in range(50):
        nsum = rng.randint(0, 3)
        tor = rng.randint(0, 4)
        if nsum == 0 and tor == 0:
            tor = 1
        sheaf = twisted.SheafOnP1(tuple(rng.randint(-3, 3) for _ in range(nsum)), tor)
        grank = rng.randint(1, 3)
        p = twisted.hilbert_poly(sheaf, grank,
                                 [rng.randint(-2, 2) for _ in range(grank)])
        assert p.degree_in("m") == sheaf.dim()
    for _ in range(20):
        length = rng.randint(1, 6)
        seen = set()
        for _ in range(4):
            npts = rng.randint(1, length)
            cuts = sorted(rng.sample(range(1, length), npts - 1)) if npts > 1 else []
            parts = [b - a for a, b in zip([0] + cuts, cuts + [length])]
            sheaf = twisted.SheafOnP1.torsion_at(
                [(Fraction(rng.randint(-99, 99)), part) for part in parts])
            seen.add(str(twisted.hilbert_poly(sheaf, 1, [0])))
        assert seen == {str(length)}
    _stamp(8, "Hilbert polynomials: line series, degree = dim, flat constancy (exact)", t0)


def test_criterion_9_cli_determinism(capsys, tmp_path):
    t0 = time.monotonic()
    assert cli_main(["demo", "example-5-1-11"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["demo", "example-5-1-11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == GOLDEN.read_text(encoding="utf-8")

    ok_file = tmp_path / "ok.json"
    ok_file.write_text(json.dumps({
        "version": 1, "command": "coc check",
        "payload": {"group": "mu", "n": 2, "indices": 2, "values": []}}))
    assert cli_main(["coc", "check", str(ok_file)]) == 0
    capsys.readouterr()

    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({
        "version": 1, "command": "coc check",
        "payload": {"group": "mu", "n": 4, "indices": 4,
                    "values": [{"ijk": [0, 1, 2], "v": 1}]}}))
    assert cli_main(["coc", "check", str(bad_file)]) == 2
    capsys.readouterr()

    mal_file = tmp_path / "mal.json"
    mal_file.write_text("{ not json")
    assert cli_main(["coc", "check", str(mal_file)]) == 1
    capsys.readouterr()
    _stamp(9, "CLI determinism: golden bytes and exit-code contract", t0)
