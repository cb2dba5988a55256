"""The exact symbolic layer: polynomial star products and operator orderings.

Everything in this demo is coefficient-exact; hbar is a formal grading
variable, so deformation identities print as exact polynomial equalities.
"""

from psq import (DiffOpWord, PolyH, nf_adjoint, nf_multiply, ppoisson, pstar,
                 sigma_S_order, sigma_order)

x, p = PolyH.x(), PolyH.p()
sigma = 0.3

print("x * p           =", pstar(x, p, sigma).render())
print("p * x           =", pstar(p, x, sigma).render())
print("commutator      =", (pstar(x, p, sigma) - pstar(p, x, sigma)).render())
print("poisson bracket =", ppoisson(x, p).render())

# operator orderings: the symbol x p^2 maps to different operator words
# depending on sigma; at sigma = 1/2 the word is the symmetrization
print("\nordered words for the symbol x p^2:")
for s in (0.0, 0.5, 1.0):
    print("  sigma=%.1f:  %s" % (s, sigma_order(PolyH.monomial(1, 2), s).render()))

# ordering intertwines the star product with the operator product
f = PolyH.monomial(2, 1, c=0.5) + PolyH.monomial(0, 2, c=1.0)
g = PolyH.monomial(1, 1, c=2.0)
lhs = sigma_order(pstar(f, g, sigma), sigma)
rhs = nf_multiply(sigma_order(f, sigma), sigma_order(g, sigma))
print("\nhomomorphism check (should be 0):", (lhs - rhs).render())

# a smoother automorphism beyond the Fourier-multiplier class: the
# three-parameter word exp(-i hbar a dx dp + i hbar b x dp^2 - hbar^2 c dp^3)
a, b, c = 1.0, 2.0, 3.0
word = DiffOpWord.three_parameter(a, b, c)
A = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(0, 3, c=1 / 6) \
    + PolyH.monomial(2, 0, c=0.5)
print("\nsymbol            A =", A.render())
print("pulled back  S^-1 A =", word.apply(A, "inverse").render())
print("ordered word        =", sigma_S_order(A, sigma, word).render())

# the word fixes the coordinates: S x = x and S p = p exactly
print("\nS x =", word.apply(x).render(), "   S p =",
      word.apply(p).render())

# adjoints reverse and conjugate, then reduce back to standard order
w = sigma_order(PolyH.monomial(1, 1), 0.0)
print("\nword q p adjoint    =", nf_adjoint(w).render())
