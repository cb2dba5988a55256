import pytest

from psq import (DiffOpWord, OperatorNF, PolyH, PSQError, WordGenerator,
                 nf_adjoint, nf_multiply, ppoisson, pstar,
                 sigma_S_order, sigma_order)
from psq.polyalg import sigma_order_right


def rand_poly(rng, deg=3, hbar_deg=0):
    terms = {}
    for n in range(deg + 1):
        for m in range(deg + 1 - n):
            for k in range(hbar_deg + 1):
                terms[(n, m, k)] = complex(rng.normal(), rng.normal())
    return PolyH(terms)


def max_coeff(poly):
    return poly.max_abs_coeff()


class TestPstar:
    def test_xp_ordering_pair(self):
        x, p = PolyH.x(), PolyH.p()
        s = 0.3
        assert pstar(x, p, s) == PolyH.monomial(1, 1) + PolyH.monomial(0, 0, 1, 1j * s)
        assert pstar(p, x, s) == PolyH.monomial(1, 1) + PolyH.monomial(0, 0, 1, -1j * 0.7)

    def test_commutator_slice(self):
        x, p = PolyH.x(), PolyH.p()
        for s in (0.0, 0.25, 0.5, 1.0):
            com = pstar(x, p, s) - pstar(p, x, s)
            assert com == PolyH.monomial(0, 0, 1, 1j)

    def test_unit(self, rng):
        f = rand_poly(rng, 4)
        one = PolyH.const(1.0)
        assert (pstar(f, one, 0.37) - f).is_zero(1e-14)
        assert (pstar(one, f, 0.37) - f).is_zero(1e-14)

    def test_associativity_degree6(self, rng):
        for s in (0.0, 0.3, 0.5, 1.0):
            f, g, h = (rand_poly(rng, 3) for _ in range(3))
            lhs = pstar(pstar(f, g, s), h, s)
            rhs = pstar(f, pstar(g, h, s), s)
            scale = max(max_coeff(lhs), 1.0)
            assert (lhs - rhs).is_zero(1e-12 * scale)

    def test_hbar0_slice_is_pointwise_product(self, rng):
        f, g = rand_poly(rng), rand_poly(rng)
        prod = pstar(f, g, 0.42)
        assert (prod.hbar_slice(0) - f * g).is_zero(1e-13 * max_coeff(prod))

    def test_b1_antisymmetrization_is_poisson(self, rng):
        f, g = rand_poly(rng), rand_poly(rng)
        s = 0.42
        b1_diff = pstar(f, g, s).hbar_slice(1) - pstar(g, f, s).hbar_slice(1)
        target = ppoisson(f, g).scale(1j)   # hbar^1 carries an i
        assert (b1_diff - target).is_zero(1e-12 * max(max_coeff(target), 1.0))

    def test_gauge_equivalence_exact(self, rng):
        s, s2 = 0.2, 0.9
        word = DiffOpWord.gauge_shift(s2 - s)
        f, g = rand_poly(rng), rand_poly(rng)
        lhs = word.apply(pstar(f, g, s))
        rhs = pstar(word.apply(f), word.apply(g), s2)
        assert (lhs - rhs).is_zero(1e-11 * max(max_coeff(lhs), 1.0))


class TestPoisson:
    def test_canonical_pair(self):
        assert ppoisson(PolyH.x(), PolyH.p()) == PolyH.const(1.0)

    def test_free_flow(self):
        h = PolyH.monomial(0, 2, c=0.5)
        assert ppoisson(h, PolyH.x()) == PolyH.monomial(0, 1, c=-1.0)

    def test_antisymmetry(self, rng):
        f, g = rand_poly(rng), rand_poly(rng)
        s = ppoisson(f, g) + ppoisson(g, f)
        assert s.is_zero(1e-13 * max(max_coeff(ppoisson(f, g)), 1.0))


class TestDiffOpWord:
    def test_fixes_coordinates(self):
        for word in (DiffOpWord.gaussian(0.3, 0.7),
                     DiffOpWord.three_parameter(1.0, 2.0, 3.0)):
            assert word.apply(PolyH.x()) == PolyH.x()
            assert word.apply(PolyH.p()) == PolyH.p()

    def test_three_parameter_pullback_example(self):
        # S = exp(-i hbar a dx dp + i hbar b x dp^2 - hbar^2 c dp^3)
        # on A = p^2/2 + p^3/6 + x^2/2:
        # S^-1 A = A - i hbar b x (1 + p) + hbar^2 (ab/2 + c)
        a, b, c = 1.5, -0.8, 0.4
        word = DiffOpWord.three_parameter(a, b, c)
        A = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(0, 3, c=1 / 6) \
            + PolyH.monomial(2, 0, c=0.5)
        pulled = word.apply(A, "inverse")
        expected = A + PolyH.monomial(1, 0, 1, -1j * b) \
            + PolyH.monomial(1, 1, 1, -1j * b) \
            + PolyH.monomial(0, 0, 2, 0.5 * a * b + c)
        assert (pulled - expected).is_zero(1e-14)

    def test_roundtrip(self, rng):
        word = DiffOpWord.three_parameter(0.3, 1.1, -0.2)
        f = rand_poly(rng, 4)
        back = word.apply(word.apply(f, "inverse"), "forward")
        assert (back - f).is_zero(1e-12 * max(max_coeff(f), 1.0))

    def test_rejects_non_terminating_generator(self):
        with pytest.raises(PSQError, match="non-terminating"):
            DiffOpWord((WordGenerator(1.0, k=1, a=2, r=1),))


class TestSigmaOrder:
    def test_xp2(self):
        # (x p^2)_sigma = q p^2 - 2 i hbar sigma p
        s = 0.35
        got = sigma_order(PolyH.monomial(1, 2), s)
        want = OperatorNF({(1, 2, 0): 1.0, (0, 1, 1): -2j * s})
        assert got == want

    def test_xp_symmetric_point(self):
        got = sigma_order(PolyH.monomial(1, 1), 0.5)
        # q p - i hbar/2 equals the symmetrization (q p + p q)/2
        sym = nf_multiply(OperatorNF.q(), OperatorNF.p()) \
            + nf_multiply(OperatorNF.p(), OperatorNF.q())
        assert got == sym.scale(0.5)

    def test_pure_x_power(self):
        for s in (0.0, 0.3, 1.0):
            got = sigma_order(PolyH.monomial(5, 0), s)
            assert got == OperatorNF({(5, 0, 0): 1.0})

    def test_homomorphism_into_operator_product(self, rng):
        # the algebraic core: ordering intertwines pstar with word products
        for s in (0.0, 0.3, 0.5, 1.0):
            f, g = rand_poly(rng, 3), rand_poly(rng, 3)
            lhs = sigma_order(pstar(f, g, s), s)
            rhs = nf_multiply(sigma_order(f, s), sigma_order(g, s))
            diff = lhs - rhs
            scale = max(max(abs(v) for v in lhs.terms.values()), 1.0)
            assert all(abs(v) < 1e-12 * scale for v in diff.terms.values())

    def test_right_ordering_against_pstar(self, rng):
        # right words reproduce f star p and f star x one-term identities
        s = 0.3
        got = sigma_order_right(PolyH.monomial(1, 1), s)
        # f star (xp): q* p* + i hbar sigmabar; verified against pstar by
        # acting on the constant symbol: 1 star (xp) = xp
        assert got == OperatorNF({(1, 1, 0): 1.0, (0, 0, 1): 0.7j}, comm_sign=-1)


class TestSigmaSOrder:
    def test_identity_word_reduces(self, rng):
        f = rand_poly(rng, 3)
        assert sigma_S_order(f, 0.3, DiffOpWord.identity()) == sigma_order(f, 0.3)

    def test_three_parameter_operator_example(self):
        # standard-ordered reduction of the worked (a, b, c) operator:
        # p^2/2 + p^3/6 + q^2/2 - i hbar b (q + sigmabar q p + sigma p q)
        #   + hbar^2 (ab/2 + c)
        a, b, c, s = 1.5, -0.8, 0.4, 0.3
        word = DiffOpWord.three_parameter(a, b, c)
        A = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(0, 3, c=1 / 6) \
            + PolyH.monomial(2, 0, c=0.5)
        got = sigma_S_order(A, s, word)
        # the correction -i hbar b (q + sigmabar q p + sigma p q) reduces via
        # p q = q p - i hbar to -i hbar b q - i hbar b q p - hbar^2 sigma b
        want = OperatorNF({(0, 2, 0): 0.5, (0, 3, 0): 1 / 6, (2, 0, 0): 0.5,
                           (1, 0, 1): -1j * b, (1, 1, 1): -1j * b,
                           (0, 0, 2): 0.5 * a * b + c - s * b})
        diff = got - want
        assert all(abs(v) < 1e-14 for v in diff.terms.values())

    def test_hermiticity_bridge(self, rng):
        # adjoint of the (sigma, S) word equals the (sigmabar, Sbar) word of
        # the conjugated symbol
        s = 0.3
        word = DiffOpWord.three_parameter(0.5, 1.0, -0.3)
        f = rand_poly(rng, 3)
        lhs = nf_adjoint(sigma_S_order(f, s, word))
        rhs = sigma_S_order(f.conj(), 1.0 - s, word.conjugated())
        diff = lhs - rhs
        scale = max(max(abs(v) for v in lhs.terms.values()), 1.0)
        assert all(abs(v) < 1e-12 * scale for v in diff.terms.values())


class TestOperatorNF:
    def test_single_commutator(self):
        q, p = OperatorNF.q(), OperatorNF.p()
        assert nf_multiply(q, p) == OperatorNF({(1, 1, 0): 1.0})
        assert nf_multiply(p, q) == OperatorNF({(1, 1, 0): 1.0, (0, 0, 1): -1j})

    def test_associativity(self, rng):
        def rand_nf():
            return OperatorNF({(n, m, 0): complex(rng.normal(), rng.normal())
                               for n in range(3) for m in range(3)})
        a, b, c = rand_nf(), rand_nf(), rand_nf()
        lhs = nf_multiply(nf_multiply(a, b), c)
        rhs = nf_multiply(a, nf_multiply(b, c))
        diff = lhs - rhs
        scale = max(max(abs(v) for v in lhs.terms.values()), 1.0)
        assert all(abs(v) < 1e-12 * scale for v in diff.terms.values())

    def test_adjoint_involutive(self, rng):
        a = OperatorNF({(n, m, 0): complex(rng.normal(), rng.normal())
                        for n in range(3) for m in range(3)})
        back = nf_adjoint(nf_adjoint(a))
        diff = back - a
        assert all(abs(v) < 1e-13 for v in diff.terms.values())

    def test_mixed_algebras_rejected(self):
        with pytest.raises(PSQError, match="opposite commutators"):
            nf_multiply(OperatorNF.q(+1), OperatorNF.q(-1))


class TestRendering:
    def test_poly_render_deterministic(self):
        # lexicographic in (hbar-degree, x-degree, p-degree)
        f = PolyH.monomial(1, 1) + PolyH.monomial(0, 0, 1, 0.5j) \
            + PolyH.monomial(2, 0, 0, -1.0)
        assert f.render() == "1*x*p + -1*x^2 + 0.5j*hbar"

    def test_nf_render(self):
        a = OperatorNF({(1, 2, 0): 1.0, (0, 1, 1): -2j * 0.5})
        assert a.render() == "1*q*p^2 + -1j*hbar*p"


@pytest.mark.parametrize("direction", ["sideways", "Forward", ""])
def test_word_rejects_unknown_direction(direction):
    with pytest.raises(PSQError, match="direction must be"):
        DiffOpWord.gaussian(0.1, 0.1).apply(PolyH.x(), direction)
