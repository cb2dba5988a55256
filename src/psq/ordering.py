"""Quantization choice: the sigma parameter plus a smoother automorphism S.

A smoother is an invertible map on phase-space functions that fixes x and p
and commutes with integration.  Supported kinds:

* GaussianSmoother(alpha, beta): Fourier multiplier
  exp(-(alpha xi^2 + beta eta^2) / 2 hbar) in the forward direction.  The
  identity smoother is its alpha = beta = 0 member, which IdentitySmoother()
  returns: the identity ordering has one value
* CohenSmoother(F): general Fourier-multiplier smoother whose *inverse*
  applies F(xi, eta); admissibility F(0,0)=1 and grad F(0,0)=0 is checked
  numerically at the lattice origin on every use
* WordSmoother(word): a grading-decreasing differential-operator word (a
  polyalg.DiffOpWord); exact on polynomials, not applicable to sampled fields.

The involution's conjugate smoother Sbar f = conj(S conj f) is derived from
the multiplier, conj S(-xi, -eta); no smoother carries one of its own.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import PSQError, UnsupportedObservableError
from .polyalg import DiffOpWord


@dataclass(frozen=True)
class GaussianSmoother:
    """S_{alpha,beta} = exp(hbar alpha d_x^2 / 2 + hbar beta d_p^2 / 2)."""

    alpha: float
    beta: float

    @property
    def kind(self):
        return "identity" if self.is_identity() else "gaussian"

    def multiplier(self, XI, ETA, hbar):
        return np.exp(-(self.alpha * XI ** 2 + self.beta * ETA ** 2) / (2.0 * hbar))

    def to_word(self):
        return DiffOpWord.gaussian(self.alpha, self.beta)

    def is_identity(self):
        return self.alpha == 0.0 and self.beta == 0.0

    def as_dict(self):
        if self.is_identity():
            return {"kind": "identity"}
        return {"kind": "gaussian", "alpha": self.alpha, "beta": self.beta}


def IdentitySmoother():
    """The identity smoother: the Gaussian smoother at alpha = beta = 0."""
    return GaussianSmoother(0.0, 0.0)


class CohenSmoother:
    """Smoother defined through the multiplier F(xi, eta) of its inverse."""

    kind = "cohen"

    def __init__(self, fn, label="cohen"):
        self.fn = fn
        self.label = label

    def _admissibility(self, dxi, deta, hbar):
        """F(0,0) = 1 and grad F(0,0) = 0, finite differences at the origin."""
        f00 = complex(self.fn(0.0, 0.0))
        if abs(f00 - 1.0) > 1e-10:
            raise PSQError("Cohen multiplier violates F(0,0)=1: F(0,0)=%r" % f00)
        gx = (complex(self.fn(dxi, 0.0)) - complex(self.fn(-dxi, 0.0))) / (2 * dxi)
        gy = (complex(self.fn(0.0, deta)) - complex(self.fn(0.0, -deta))) / (2 * deta)
        scale = max(abs(dxi), abs(deta))
        if max(abs(gx), abs(gy)) * scale > 1e-8:
            raise PSQError("Cohen multiplier violates grad F(0,0)=0")

    def multiplier(self, XI, ETA, hbar):
        # checked on every lattice: admissibility depends on the spacing
        xi1 = XI[XI > 0].min() if np.any(XI > 0) else 1.0
        eta1 = ETA[ETA > 0].min() if np.any(ETA > 0) else 1.0
        self._admissibility(xi1, eta1, hbar)
        vals = np.asarray(self.fn(XI, ETA), dtype=complex)
        # forward smoother multiplier = 1/F; invertibility on lattice assumed
        if np.any(vals == 0):
            raise PSQError("Cohen multiplier vanishes on the lattice")
        return 1.0 / vals

    def to_word(self):
        raise UnsupportedObservableError(
            "Cohen smoother has no exact polynomial word")

    def is_identity(self):
        return False

    def as_dict(self):
        return {"kind": "cohen", "label": self.label}


class WordSmoother:
    """Differential-operator-word smoother; exact symbolic use only."""

    kind = "word"

    def __init__(self, word):
        self.word = word

    def multiplier(self, XI, ETA, hbar):
        raise UnsupportedObservableError(
            "word smoothers act on polynomials, not sampled fields")

    def to_word(self):
        return self.word

    def is_identity(self):
        return self.word.is_identity()

    def as_dict(self):
        return {"kind": "word"}


@dataclass(frozen=True)
class OrderingSpec:
    """sigma plus smoother; sigma_bar = 1 - sigma is always derived."""

    sigma: float = 0.5
    smoother: object = field(default_factory=IdentitySmoother)

    def __post_init__(self):
        if not np.isfinite(self.sigma):
            raise PSQError("sigma must be finite")

    @property
    def sigma_bar(self):
        return 1.0 - self.sigma

    def is_plain_sigma(self):
        return self.smoother.is_identity()

    def as_dict(self):
        return {"sigma": self.sigma, "smoother": self.smoother.as_dict()}


def _finite(d, key, default):
    """d[key] (or the default) as a float; PSQError unless it is a number within
    the float range (not a bool, NaN, +-Infinity or an overlong integer)."""
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise PSQError("ordering %s must be a finite number, got %r" % (key, value))
    return float(value)


def spec_from_dict(d):
    """The OrderingSpec of a JSON ordering block (a state sidecar or a config)."""
    sm = d.get("smoother", {"kind": "identity"}) if isinstance(d, dict) else None
    if not isinstance(sm, dict):
        raise PSQError("an ordering and its smoother must be JSON objects, got %r" % d)
    kind = sm.get("kind", "identity")
    if kind not in ("identity", "gaussian"):
        raise PSQError("cannot build smoother kind %r from config" % kind)
    smoother = GaussianSmoother(_finite(sm, "alpha", 0.0), _finite(sm, "beta", 0.0))
    if kind == "identity" and not smoother.is_identity():
        raise PSQError("the identity smoother takes no alpha or beta, got %r" % sm)
    return OrderingSpec(_finite(d, "sigma", 0.5), smoother)
