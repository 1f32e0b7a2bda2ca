"""Weight densities Q and the closed-form model constants.

A weight density is the scalar field Q >= 0 entering the zeroth slot of the
cyclic system through V_0 = Q * exp(-sum_j w_j).  All kinds carry a scale t
applied as t^2 * Q, so rescaling the underlying differential by t multiplies
the density by t^2:

    zero        Q = 0
    constant    Q = t^2 * value
    poly        Q = t^2 * |q(z)|^2, q given by ascending complex coefficients
    radial      Q = t^2 * interp(|z|) of samples on a uniform [0, 1] lattice
    grid        Q = t^2 * samples, one value per node of the target grid

The model constants collect everything the degenerate (Q = 0) solution
determines in closed form: the Cartan coefficients lambda_j = j*(r-j), the
model entropy, and the Beta-type integrals

    c_beta = int_0^1 s^beta (1-s)^beta ds
    d_beta = int_0^1 s^beta (1-s)^beta log(s) ds

whose combination log(c_beta) - 2*beta*d_beta/c_beta is the large-rank limit
of S_model(r, beta) - log(r) for beta > -1 (minus infinity otherwise).  The
limit is nonpositive: the model entropy lives on r-1 slots, so it always
sits below log(r), and the Riemann-sum asymptotics of
Z = sum_j lambda_j^beta ~ c_beta * r^{2 beta + 1} give

    S_model - log(r) = log(c_beta) - 2*beta*d_beta/c_beta + o(1).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InternalError, ValidationError
from .grid import Field, Grid, is_number

log = logging.getLogger(__name__)

KINDS = ("zero", "constant", "poly", "radial", "grid")


@dataclass(frozen=True)
class WeightDensity:
    kind: str
    r: int
    t: float = 1.0
    coeffs: np.ndarray | None = None   # complex, ascending degree
    samples: np.ndarray | None = None
    value: float | None = None

    def describe(self) -> str:
        if self.kind == "poly":
            extra = f"deg={len(self.coeffs) - 1}"
        elif self.kind == "constant":
            extra = f"value={self.value:g}"
        elif self.kind in ("radial", "grid"):
            extra = f"samples={len(self.samples)}"
        else:
            extra = ""
        bits = [f"kind={self.kind}", f"r={self.r}", f"t={self.t:g}"]
        if extra:
            bits.append(extra)
        return " ".join(bits)

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "r": self.r, "t": self.t}
        if self.kind == "poly":
            doc["coeffs"] = [[float(c.real), float(c.imag)] for c in self.coeffs]
        elif self.kind == "constant":
            doc["value"] = float(self.value)
        elif self.kind in ("radial", "grid"):
            doc["samples"] = [float(s) for s in self.samples]
        return doc


def _numbers(values, what: str, dtype, pointer: str) -> np.ndarray:
    """`values`, a nonempty list, as a `dtype` array, every entry a finite
    number unless `values` is a numeric array; numpy alone reads true as 1
    and "0.5" as 0.5; a rejected list is an error at `pointer`."""
    kind = numbers.Complex if dtype is complex else numbers.Real
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
    try:
        entries = values if numeric else np.asarray(values, dtype=object)
        if entries.ndim == 0 or entries.size == 0:
            raise ConfigurationError(f"{what} must be a nonempty list, "
                                     f"got {values!r}", pointer=pointer)
        if numeric or all(is_number(v, kind) for v in entries.flat):
            return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} are not numeric: {exc}",
                                 pointer=pointer) from None
    raise ConfigurationError(
        f"{what} must be finite numbers, not bool or str", pointer=pointer)


def make_weight(kind: str, r: int, t: float = 1.0, coeffs=None, samples=None,
                value=None) -> WeightDensity:
    if kind not in KINDS:
        raise ConfigurationError(f"kind must be one of {KINDS}, got {kind!r}",
                                 pointer="/kind")
    if not is_number(r, numbers.Integral) or r < 2:
        raise ConfigurationError(f"r must be an integer >= 2, got {r!r}",
                                 pointer="/r")
    if not (is_number(t) and t > 0.0):
        raise ConfigurationError(f"t must be positive and finite, got {t!r}",
                                 pointer="/t")
    t = float(t)

    carr = sarr = None
    val = None
    if kind == "poly":
        arr = _numbers(coeffs, "poly coeffs", complex, "/coeffs")
        if arr.ndim == 2 and arr.shape[1] == 2:
            # JSON wire form: ascending-degree [re, im] pairs
            carr = arr[:, 0].real + 1j * arr[:, 1].real
        elif arr.ndim == 1:
            carr = arr
        else:
            raise ConfigurationError(
                "poly coeffs must be complex scalars or [re, im] pairs",
                pointer="/coeffs")
        if not np.all(np.isfinite(carr.view(float))):
            raise ConfigurationError("poly coeffs must be finite",
                                     pointer="/coeffs")
        carr = carr.copy()
        carr.setflags(write=False)
    elif kind == "constant":
        if not (is_number(value) and value >= 0.0):
            raise ConfigurationError(
                f"constant weight needs a value >= 0, got {value!r}",
                pointer="/value")
        val = float(value)
    elif kind in ("radial", "grid"):
        sarr = _numbers(samples, f"{kind} samples", float, "/samples")
        least = 2 if kind == "radial" else 1
        if (sarr.ndim != 1 or len(sarr) < least
                or not np.all(np.isfinite(sarr) & (sarr >= 0.0))):
            raise ConfigurationError(
                f"{kind} samples must be a flat list of at least {least} "
                "finite values >= 0", pointer="/samples")
        sarr.setflags(write=False)
    return WeightDensity(kind=kind, r=int(r), t=t, coeffs=carr, samples=sarr, value=val)


_WEIGHT_KEYS = {"kind", "r", "t", "coeffs", "samples", "value"}


def weight_from_dict(doc: dict) -> WeightDensity:
    """The weight of a JSON document; `coeffs` takes only the [re, im] pair
    form that `to_dict` writes."""
    if not isinstance(doc, dict):
        raise ConfigurationError("weight document must be a JSON object")
    unknown = sorted(set(doc) - _WEIGHT_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown weight keys {unknown}")
    coeffs = doc.get("coeffs")
    if coeffs is not None and not (
            isinstance(coeffs, list)
            and all(isinstance(c, list) and len(c) == 2 for c in coeffs)):
        raise ConfigurationError(
            f"coeffs must be a list of [re, im] pairs, got {coeffs!r}",
            pointer="/coeffs")
    return make_weight(
        kind=doc.get("kind"),
        r=doc.get("r"),
        t=doc.get("t", 1.0),
        coeffs=coeffs,
        samples=doc.get("samples"),
        value=doc.get("value"),
    )


def evaluate_density(weight: WeightDensity, grid: Grid) -> Field:
    """Evaluate t^2 * Q_base at the grid nodes; result is finite and >= 0.

    t^2 Q_base can overflow, to inf or, times a zero of Q_base, to nan;
    either raises ValidationError, so numpy's overflow warnings are
    silenced here."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = _density(weight, grid)
    if not np.all(np.isfinite(q)):
        raise ValidationError("weight density evaluated to a non-finite value")
    # roundoff in |q|^2 cannot go negative, but guard the invariant anyway
    np.maximum(q, 0.0, out=q)
    return Field(grid, q)


def _density(weight: WeightDensity, grid: Grid) -> np.ndarray:
    t2 = weight.t * weight.t
    if weight.kind == "zero":
        q = np.zeros(grid.nodes)
    elif weight.kind == "constant":
        q = np.full(grid.nodes, t2 * weight.value)
    elif weight.kind == "poly":
        if grid.mode == "radial":
            # only |c| z^k is radially symmetric; reject anything else
            nz = np.flatnonzero(np.abs(weight.coeffs) > 0)
            if len(nz) > 1:
                raise ConfigurationError(
                    "poly weight on a radial grid must be a monomial; "
                    f"got {len(nz)} nonzero coeffs", pointer="/coeffs")
            z = grid.x.astype(complex)
        else:
            z = grid.x + 1j * grid.y
        qz = np.polynomial.polynomial.polyval(z, weight.coeffs)
        q = t2 * (qz.real * qz.real + qz.imag * qz.imag)
    elif weight.kind == "radial":
        rho = np.sqrt(grid.r2)
        lattice = np.linspace(0.0, 1.0, len(weight.samples))
        q = t2 * np.interp(rho, lattice, weight.samples)
    else:  # grid samples
        if len(weight.samples) != grid.nodes:
            raise ConfigurationError(
                f"grid weight has {len(weight.samples)} samples, "
                f"grid {grid.key()} has {grid.nodes} nodes",
                pointer="/samples")
        q = t2 * weight.samples.copy()
    return q


def lambda_coefficients(r: int) -> np.ndarray:
    """Cartan coefficients lambda_j = j*(r-j), j = 1..r-1.

    They satisfy 2*lambda_j - lambda_{j-1} - lambda_{j+1} = 2 with the
    convention lambda_0 = lambda_r = 0, which is exactly what makes
    w_j = log(lambda_j) - 2*log(1 - |z|^2) solve the degenerate system.
    """
    if not is_number(r, numbers.Integral) or r < 2:
        raise ConfigurationError(f"r must be an integer >= 2, got {r!r}")
    j = np.arange(1, r, dtype=float)
    return j * (r - j)


@dataclass(frozen=True)
class ModelConstants:
    r: int
    beta: float
    lam: np.ndarray
    S_model: float
    c_beta: float
    d_beta: float
    entropy_limit: float

    def to_dict(self) -> dict:
        def enc(v: float):
            return v if math.isfinite(v) else ("-inf" if v < 0 else "inf")

        return {
            "r": self.r,
            "beta": self.beta,
            "lambda": [float(v) for v in self.lam],
            "S_model": self.S_model,
            "c_beta": enc(self.c_beta),
            "d_beta": enc(self.d_beta),
            "entropy_limit": enc(self.entropy_limit),
        }


def model_entropy(r: int, beta: float) -> float:
    """Entropy of p_j proportional to lambda_j^beta over the r-1 live slots.

    The degenerate slot carries density zero in the model and never competes,
    so the distribution ranges over j = 1..r-1 for either sign of beta.
    """
    beta = _check_beta(beta)
    p, _ = _ensemble(beta * np.log(lambda_coefficients(r)))
    return float(_entropy_of(p))


def _ensemble(logits: np.ndarray) -> tuple:
    """Softmax over slots (axis 0) and its log-partition log sum exp.

    Logits of -inf are excluded slots with probability exactly zero; the
    max shift keeps every exponent <= 0.
    """
    m = logits.max(axis=0)
    if not np.all(np.isfinite(m)):
        raise InternalError("every ensemble slot is excluded at some node")
    z = np.exp(logits - m)
    total = z.sum(axis=0)
    return z / total, m + np.log(total)


def _entropy_of(p: np.ndarray) -> np.ndarray:
    """-sum p log p over slots (axis 0), with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    return -plogp.sum(axis=0)


def beta_integrals(beta: float) -> tuple[float, float]:
    """Adaptive quadrature for (c_beta, d_beta); requires beta > -1.

    Both integrands carry the algebraic endpoint factor s^beta (1-s)^beta,
    singular at the endpoints for beta < 0, and d_beta adds a log(s) factor.
    QUADPACK's weighted rules absorb exactly this structure: 'alg' integrates
    (s-a)^alpha (b-s)^beta against a smooth remainder, 'alg-loga' the same
    times log(s-a).  With the smooth remainder identically 1 both integrals
    come out near machine precision across the whole range beta > -1.
    """
    # imported here: scipy.integrate pulls in scipy.optimize, which costs
    # more at start-up than the rest of the package, and only the model
    # constants need it
    from scipy.integrate import quad

    beta = _check_beta(beta)
    if beta <= -1.0:
        raise ConfigurationError(
            f"c_beta/d_beta integrals diverge for beta <= -1, got {beta}"
        )
    c, ec = quad(lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(beta, beta),
                 epsabs=1e-13, epsrel=1e-13)
    d, ed = quad(lambda s: 1.0, 0.0, 1.0, weight="alg-loga", wvar=(beta, beta),
                 epsabs=1e-13, epsrel=1e-13)
    if max(ec, ed) > 5e-11:
        log.warning("beta integrals at beta=%g reached error estimate %g",
                    beta, max(ec, ed))
    return c, d


def model_constants(r: int, beta: float) -> ModelConstants:
    beta = _check_beta(beta)
    lam = lambda_coefficients(r)
    s_model = model_entropy(r, beta)
    if beta > -1.0:
        c_beta, d_beta = beta_integrals(beta)
        # Limit of S_model(r, beta) - log r as r grows.  Necessarily <= 0
        # since the model distribution occupies only r-1 slots.
        entropy_limit = math.log(c_beta) - 2.0 * beta * d_beta / c_beta
    else:
        c_beta = math.inf
        d_beta = -math.inf
        entropy_limit = -math.inf
    return ModelConstants(r=int(r), beta=beta, lam=lam, S_model=s_model,
                          c_beta=c_beta, d_beta=d_beta,
                          entropy_limit=entropy_limit)


def _check_beta(beta: float) -> float:
    if not (is_number(beta) and beta != 0.0):
        raise ConfigurationError(
            f"beta must be a finite nonzero number, got {beta!r}")
    return float(beta)
