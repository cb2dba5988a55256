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
and word smoothers have no JSON form.  This module also owns the check of a
JSON value against such a schema fragment (schema_error): a value the fast
check _conforms accepts never loads jsonschema, which words the refusals.
"""

import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite

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


_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int,
          "number": (int, float)}


def _is_type(value, name):
    # a bool is no number; 5.0 is an integer and NaN a number only to jsonschema
    if (isinstance(value, bool) != (name == "boolean")
            or isinstance(value, float) and not isfinite(value)):
        return False
    return isinstance(value, _TYPES[name])


def _number(value):
    return _is_type(value, "number")


# keyword -> test of (value, the keyword's argument, the schema)
_KEYWORDS = {
    "$schema": lambda v, uri, s: uri == _DRAFT,
    "type": lambda v, name, s: _is_type(v, name),
    "enum": lambda v, values, s: any(type(v) is type(e) and v == e for e in values),
    "minimum": lambda v, bound, s: _number(v) and v >= bound,
    "maximum": lambda v, bound, s: _number(v) and v <= bound,
    "exclusiveMinimum": lambda v, bound, s: _number(v) and v > bound,
    "minItems": lambda v, n, s: isinstance(v, list) and len(v) >= n,
    "pattern": lambda v, regex, s: isinstance(v, str) and re.search(regex, v) is not None,
    "required": lambda v, keys, s: isinstance(v, dict) and all(k in v for k in keys),
    "properties": lambda v, props, s: isinstance(v, dict) and all(
        _conforms(v[k], sub) for k, sub in props.items() if k in v),
    "additionalProperties": lambda v, extra, s: (
        extra is False and isinstance(v, dict) and all(k in s.get("properties", {}) for k in v)),
    "items": lambda v, sub, s: isinstance(v, list) and all(_conforms(x, sub) for x in v),
}


def _conforms(value, schema):
    """True only when the JSON value satisfies the draft 2020-12 schema.

    Covers the keywords of psq's schemas (_KEYWORDS).  False means "no
    verdict", never "invalid": it is returned for any other keyword, a value
    of a type it does not know, an integer written as a float, a NaN or an
    infinity, and a TypeError, and the caller asks jsonschema instead.
    """
    try:
        return all(_KEYWORDS[key](value, arg, schema) for key, arg in schema.items())
    except (KeyError, TypeError):
        return False


def schema_error(value, schema, validator):
    """The message of jsonschema's best match among the value's errors against
    `schema`, or None when it has none.  A value _conforms accepts returns
    None without loading jsonschema; any other goes to `validator()`, a
    jsonschema validator of `schema`, whose best match words the refusal."""
    if _conforms(value, schema):
        return None
    from jsonschema.exceptions import best_match
    error = best_match(validator().iter_errors(value))
    return None if error is None else error.message


@lru_cache(maxsize=None)
def _validator():
    """The ORDERING_SCHEMA validator, built once, by the first ordering block
    the fast check cannot pass; a valid run never loads jsonschema."""
    import jsonschema
    return jsonschema.validators.validator_for(ORDERING_SCHEMA)(ORDERING_SCHEMA)


def spec_from_dict(d):
    """The OrderingSpec of a JSON ordering block (a state sidecar or a config).

    The block is checked against ORDERING_SCHEMA through schema_error, so a
    refusal carries jsonschema's best-match message."""
    message = schema_error(d, ORDERING_SCHEMA, _validator)
    if message is not None:
        raise PSQError("ordering %r: %s" % (d, message))
    sm = d.get("smoother", {})
    smoother = GaussianSmoother(float(sm.get("alpha", 0.0)), float(sm.get("beta", 0.0)))
    # NaN passes the schema's bounds
    if not np.isfinite([smoother.alpha, smoother.beta]).all():
        raise PSQError("ordering alpha and beta must be finite, got %r" % sm)
    if sm.get("kind", "identity") == "identity" and not smoother.is_identity():
        raise PSQError("the identity smoother takes no alpha or beta, got %r" % sm)
    return OrderingSpec(float(d.get("sigma", 0.5)), smoother)
