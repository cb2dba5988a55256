"""Exact symbolic layer: hbar-graded polynomial star products and orderings.

Everything here is coefficient-exact: polynomials carry hbar as a formal
grading variable (integer powers), never as a float, so deformation axioms
can be asserted as exact slice identities.  This module is the ground-truth
oracle for the numerical star-product code.

Conventions for the ordering maps, derived once from the Fourier kernels of
the grid module and frozen here:

* left ordered word of a symbol f at parameter sigma = the standard-ordered
  operator (all qhat left of all phat, commutator [qhat, phat] = +i hbar)
  whose coefficient table is exp(-i hbar sigma d_x d_p) f;
* right ordered word = the standard-ordered operator in the starred pair
  (commutator -i hbar) with coefficient table exp(+i hbar (1-sigma) d_x d_p) f.

The reductions p q = q p -+ i hbar are applied when multiplying words.
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import PSQError


def _clean(terms):
    return {key: c for key, c in terms.items() if c != 0}


def _fmt_coeff(c):
    c = complex(c)
    if c.imag == 0:
        return "%.12g" % c.real
    if c.real == 0:
        return "%.12gj" % c.imag
    return "(%.12g%+.12gj)" % (c.real, c.imag)


class _TermSum:
    """Sparse sum c * hbar^k * a^n * b^m over two symbols (a, b), keys (n, m, k).

    Holds the term table, its linear algebra, equality and rendering; a
    subclass names its two symbols and defines products.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _clean(dict(terms) if terms else {})

    def _new(self, terms):
        """A sum of the same kind and algebra holding the given terms."""
        return type(self)(terms)

    def _check(self, other):
        """Raise unless other belongs to the same algebra (no-op here)."""

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return self._new(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) - c
        return self._new(out)

    def scale(self, s):
        return self._new({k: c * s for k, c in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def render(self):
        """Deterministic text rendering, term order lexicographic in (k, n, m)."""
        if not self.terms:
            return "0"
        a, b = self.SYMBOLS
        parts = []
        for (n, m, k) in sorted(self.terms, key=lambda t: (t[2], t[0], t[1])):
            c = self.terms[(n, m, k)]
            factors = [_fmt_coeff(c)]
            if k:
                factors.append("hbar" + ("^%d" % k if k > 1 else ""))
            if n:
                factors.append(a + ("^%d" % n if n > 1 else ""))
            if m:
                factors.append(b + ("^%d" % m if m > 1 else ""))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.render())


class PolyH(_TermSum):
    """Commutative polynomial sum c * hbar^k * x^n * p^m, keys (n, m, k)."""

    __slots__ = ()
    SYMBOLS = ("x", "p")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c=1.0):
        return cls({(0, 0, 0): complex(c)})

    @classmethod
    def x(cls):
        return cls({(1, 0, 0): 1.0 + 0j})

    @classmethod
    def p(cls):
        return cls({(0, 1, 0): 1.0 + 0j})

    @classmethod
    def monomial(cls, n, m, k=0, c=1.0):
        return cls({(int(n), int(m), int(k)): complex(c)})

    # -- algebra -------------------------------------------------------------
    def __neg__(self):
        return PolyH({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PolyH):
            return self.scale(other)
        out = {}
        for (n1, m1, k1), c1 in self.terms.items():
            for (n2, m2, k2), c2 in other.terms.items():
                key = (n1 + n2, m1 + m2, k1 + k2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return PolyH(out)

    __rmul__ = __mul__

    def conj(self):
        return PolyH({k: np.conj(c) for k, c in self.terms.items()})

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.terms.values())

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- calculus ------------------------------------------------------------
    def diff_x(self, order=1):
        out = self.terms
        for _ in range(order):
            out = _clean({(n - 1, m, k): c * n for (n, m, k), c in out.items() if n > 0})
        return PolyH(out)

    def diff_p(self, order=1):
        out = self.terms
        for _ in range(order):
            out = _clean({(n, m - 1, k): c * m for (n, m, k), c in out.items() if m > 0})
        return PolyH(out)

    def xp_degree(self):
        return max((n + m for (n, m, _k) in self.terms), default=-1)

    def hbar_slice(self, k):
        return PolyH({(n, m, 0): c for (n, m, kk), c in self.terms.items() if kk == k})

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, X, P, hbar):
        """Evaluate with a numeric hbar on coordinate arrays."""
        out = np.zeros(np.broadcast(X, P).shape, dtype=complex)
        for (n, m, k), c in self.terms.items():
            out += c * (hbar ** k) * (X ** n) * (P ** m)
        return out


# ---------------------------------------------------------------------------
# star product, Poisson bracket
# ---------------------------------------------------------------------------

def pstar(f, g, sigma):
    """Exact sigma star product of polynomials.

    f * g = sum_{r,s} (-1)^s (i hbar)^{r+s} sigma^r sigmabar^s / (r! s!)
            (d_x^r d_p^s f)(d_x^s d_p^r g),
    a finite sum on polynomials.
    """
    sigma = complex(sigma)
    sigmabar = 1.0 - sigma
    deg_f = f.xp_degree()
    deg_g = g.xp_degree()
    if deg_f < 0 or deg_g < 0:
        return PolyH.zero()
    out = PolyH.zero()
    max_rs = min(deg_f, deg_g)  # derivatives kill higher orders on both sides
    for r in range(max_rs + 1):
        for s in range(max_rs - r + 1):
            df = f.diff_x(r).diff_p(s)
            if df.is_zero():
                continue
            dg = g.diff_x(s).diff_p(r)
            if dg.is_zero():
                continue
            coeff = ((-1) ** s) * (1j ** (r + s)) * (sigma ** r) * (sigmabar ** s) \
                / (factorial(r) * factorial(s))
            term = (df * dg).scale(coeff)
            # attach the hbar^{r+s} grading
            out = out + PolyH({(n, m, k + r + s): c for (n, m, k), c in term.terms.items()})
    return out


def ppoisson(f, g):
    """Canonical Poisson bracket d_x f d_p g - d_p f d_x g, exact."""
    return f.diff_x() * g.diff_p() - f.diff_p() * g.diff_x()


# ---------------------------------------------------------------------------
# differential-operator words (automorphisms S)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WordGenerator:
    """One generator c * hbar^k * x^a p^b d_x^r d_p^s of a word exponent."""

    coeff: complex
    k: int = 0
    a: int = 0
    b: int = 0
    r: int = 0
    s: int = 0

    def apply(self, f):
        out = f.diff_x(self.r).diff_p(self.s)
        if out.is_zero():
            return out
        out = PolyH({(n + self.a, m + self.b, k + self.k): c
                     for (n, m, k), c in out.terms.items()})
        return out.scale(self.coeff)


class DiffOpWord:
    """exp of a finite sum of grading-decreasing generators.

    Admissibility (checked at construction): every generator strictly lowers
    the (x, p)-degree, i.e. r + s > a + b, which makes the exponential series
    terminate exactly on any polynomial.
    """

    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = tuple(generators)
        for gen in gens:
            if gen.r + gen.s <= gen.a + gen.b:
                raise PSQError(
                    "non-terminating word generator: x^%d p^%d d_x^%d d_p^%d "
                    "does not lower the polynomial degree" % (gen.a, gen.b, gen.r, gen.s))
        self.generators = gens

    @classmethod
    def identity(cls):
        return cls(())

    @classmethod
    def gauge_shift(cls, delta):
        """exp(i hbar delta d_x d_p), the map between sigma and sigma+delta products."""
        if delta == 0:
            return cls.identity()
        return cls((WordGenerator(1j * delta, k=1, r=1, s=1),))

    @classmethod
    def gaussian(cls, alpha, beta):
        """exp(hbar alpha d_x^2 / 2 + hbar beta d_p^2 / 2)."""
        gens = []
        if alpha != 0:
            gens.append(WordGenerator(0.5 * alpha, k=1, r=2))
        if beta != 0:
            gens.append(WordGenerator(0.5 * beta, k=1, s=2))
        return cls(tuple(gens))

    @classmethod
    def three_parameter(cls, a, b, c):
        """exp(-i hbar a d_x d_p + i hbar b x d_p^2 - hbar^2 c d_p^3)."""
        gens = []
        if a != 0:
            gens.append(WordGenerator(-1j * a, k=1, r=1, s=1))
        if b != 0:
            gens.append(WordGenerator(1j * b, k=1, a=1, s=2))
        if c != 0:
            gens.append(WordGenerator(-c, k=2, s=3))
        return cls(tuple(gens))

    def is_identity(self):
        return not self.generators

    def negated(self):
        return DiffOpWord(tuple(
            WordGenerator(-g.coeff, g.k, g.a, g.b, g.r, g.s) for g in self.generators))

    def conjugated(self):
        """Word of Sbar, defined by Sbar f = (S f*)*."""
        return DiffOpWord(tuple(
            WordGenerator(np.conj(g.coeff), g.k, g.a, g.b, g.r, g.s)
            for g in self.generators))

    def _exponent_applied(self, f):
        out = PolyH.zero()
        for gen in self.generators:
            out = out + gen.apply(f)
        return out

    def apply(self, f, direction="forward"):
        """Exact exponential series; 'inverse' exponentiates the negated sum."""
        if direction == "inverse":
            return self.negated().apply(f, "forward")
        if direction != "forward":
            raise PSQError("direction must be 'forward' or 'inverse'")
        total = f
        term = f
        k = 1
        while True:
            term = self._exponent_applied(term).scale(1.0 / k)
            if term.is_zero():
                return total
            total = total + term
            k += 1


# ---------------------------------------------------------------------------
# operator normal forms
# ---------------------------------------------------------------------------

class OperatorNF(_TermSum):
    """Standard-ordered operator sum c * hbar^k * q^n p^m, keys (n, m, k).

    Standard order: all q factors to the left of all p factors; the
    commutation relation used in reductions is [q, p] = comm_sign * i hbar
    (+1 for left/canonical operators, -1 for the right-action pair).
    """

    __slots__ = ("comm_sign",)
    SYMBOLS = ("q", "p")

    def __init__(self, terms=None, comm_sign=+1):
        super().__init__(terms)
        self.comm_sign = comm_sign

    @classmethod
    def q(cls, comm_sign=+1):
        return cls({(1, 0, 0): 1.0 + 0j}, comm_sign)

    @classmethod
    def p(cls, comm_sign=+1):
        return cls({(0, 1, 0): 1.0 + 0j}, comm_sign)

    @classmethod
    def from_poly(cls, poly, comm_sign=+1):
        """Interpret x^n p^m hbar^k coefficients as q^n p^m hbar^k directly."""
        return cls(dict(poly.terms), comm_sign)

    def _new(self, terms):
        return OperatorNF(terms, self.comm_sign)

    def _check(self, other):
        if self.comm_sign != other.comm_sign:
            raise PSQError("cannot mix operator algebras with opposite commutators")

    def __eq__(self, other):
        return super().__eq__(other) and self.comm_sign == other.comm_sign


def _reduce_pq(c, m, n, s):
    """c p^m q^n in standard order: [(j, coefficient of hbar^j q^(n-j) p^(m-j))].

    p^m q^n = sum_j C(m,j) C(n,j) j! (-s i hbar)^j q^(n-j) p^(m-j), where s
    is the algebra's commutator sign.
    """
    return [(j, c * comb(m, j) * comb(n, j) * factorial(j) * ((-s * 1j) ** j))
            for j in range(min(m, n) + 1)]


def nf_multiply(A, B):
    """Product of standard-ordered words, reduced back to standard order."""
    A._check(B)
    s = A.comm_sign
    out = {}
    for (n1, m1, k1), c1 in A.terms.items():
        for (n2, m2, k2), c2 in B.terms.items():
            for j, coeff in _reduce_pq(c1 * c2, m1, n2, s):
                key = (n1 + n2 - j, m1 + m2 - j, k1 + k2 + j)
                out[key] = out.get(key, 0.0) + coeff
    return OperatorNF(out, s)


def word_profiles(word, q, hbar):
    """Coefficient functions of a standard-ordered word, p-power by p-power.

    Returns [(m, a_m)] in increasing m, where a_m = sum_{n,k} c_nmk hbar^k q^n
    with the numeric hbar folded in and the q-polynomial evaluated at q by
    Horner's rule.  a_m stays a scalar when the p^m part is constant in q.
    """
    by_m = {}
    for (n, m, k), c in word.terms.items():
        qc = by_m.setdefault(m, {})
        qc[n] = qc.get(n, 0.0) + c * hbar ** k
    out = []
    for m, qc in sorted(by_m.items()):
        nmax = max(qc)
        a_m = qc[nmax]
        for n in range(nmax - 1, -1, -1):
            a_m = a_m * q + qc.get(n, 0.0)
        out.append((m, a_m))
    return out


def nf_adjoint(A):
    """Adjoint: reverse factors, conjugate coefficients, re-reduce.

    (c hbar^k q^n p^m)^dagger = conj(c) hbar^k p^m q^n, then standard-ordered.
    """
    s = A.comm_sign
    out = {}
    for (n, m, k), c in A.terms.items():
        for j, coeff in _reduce_pq(np.conj(c), m, n, s):
            key = (n - j, m - j, k + j)
            out[key] = out.get(key, 0.0) + coeff
    return OperatorNF(out, s)


# ---------------------------------------------------------------------------
# sigma- and (sigma, S)-orderings
# ---------------------------------------------------------------------------

def sigma_order(f, sigma):
    """Standard-ordered form of the sigma-ordered operator of the symbol f.

    Constructive recursion: the correction kernel acts on the symbol as
    exp(-i hbar sigma d_x d_p); the corrected coefficient table maps
    monomial-by-monomial onto q^n p^m.  This reproduces the reordering that
    the oscillatory-integral definition generates.
    """
    corrected = DiffOpWord.gauge_shift(-sigma).apply(f)
    return OperatorNF.from_poly(corrected, comm_sign=+1)


def sigma_order_right(f, sigma):
    """Standard-ordered word for the right-action operator pair.

    The right pair has commutator -i hbar and the correction kernel carries
    exp(+i hbar sigmabar d_x d_p).
    """
    corrected = DiffOpWord.gauge_shift(1.0 - sigma).apply(f)
    return OperatorNF.from_poly(corrected, comm_sign=-1)


def sigma_S_order(f, sigma, word):
    """(sigma, S)-ordered word: sigma-order the pulled-back symbol S^-1 f."""
    return sigma_order(word.apply(f, "inverse"), sigma)


def pstar_S(f, g, sigma, word):
    """Exact (sigma, S) star product S(S^-1 f *_sigma S^-1 g) of polynomials."""
    return word.apply(pstar(word.apply(f, "inverse"), word.apply(g, "inverse"), sigma),
                      "forward")
