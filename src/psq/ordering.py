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

An ordering's JSON form, in configs and state sidecars alike, is the object
ORDERING_SCHEMA describes: sigma in [-4, 5] (default 1/2) and an identity or
Gaussian smoother with alpha and beta in [-2, 2].  spec_from_dict reads it and
OrderingSpec.as_dict writes it; both refuse an ordering outside it, so Cohen
and word smoothers have no JSON form.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PSQError, UnsupportedObservableError
from .polyalg import DiffOpWord

SIGMA_SCHEMA = {"type": "number", "minimum": -4, "maximum": 5}
SMOOTHER_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["identity", "gaussian"]},
        "alpha": {"type": "number", "minimum": -2, "maximum": 2},
        "beta": {"type": "number", "minimum": -2, "maximum": 2},
    },
    "additionalProperties": False,
}
# open to other keys: a state sidecar also carries "normalized"
ORDERING_SCHEMA = {
    "type": "object",
    "properties": {"sigma": SIGMA_SCHEMA, "smoother": SMOOTHER_SCHEMA},
}


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

    def __init__(self, fn):
        self.fn = fn

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
        """The JSON form; PSQError for an ordering spec_from_dict would refuse."""
        if not isinstance(self.smoother, GaussianSmoother):
            raise PSQError("a %s smoother has no JSON form" % self.smoother.kind)
        d = {"sigma": self.sigma, "smoother": self.smoother.as_dict()}
        spec_from_dict(d)
        return d


@lru_cache(maxsize=None)
def _validator():
    """The ORDERING_SCHEMA validator, built once; jsonschema loads on first use."""
    import jsonschema
    return jsonschema.validators.validator_for(ORDERING_SCHEMA)(ORDERING_SCHEMA)


def spec_from_dict(d):
    """The OrderingSpec of a JSON ordering block (a state sidecar or a config)."""
    from jsonschema.exceptions import best_match
    error = best_match(_validator().iter_errors(d))
    if error is not None:
        raise PSQError("ordering %r: %s" % (d, error.message))
    sm = d.get("smoother", {})
    smoother = GaussianSmoother(float(sm.get("alpha", 0.0)), float(sm.get("beta", 0.0)))
    # NaN passes the schema's bounds
    if not np.isfinite([smoother.alpha, smoother.beta]).all():
        raise PSQError("ordering alpha and beta must be finite, got %r" % sm)
    if sm.get("kind", "identity") == "identity" and not smoother.is_identity():
        raise PSQError("the identity smoother takes no alpha or beta, got %r" % sm)
    return OrderingSpec(float(d.get("sigma", 0.5)), smoother)
