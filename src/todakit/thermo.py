"""Canonical-ensemble functionals over the metric densities of a solution.

At every node the r slot densities are D_0 = V_0 (the wrap-around slot) and
D_j = e^{w_j} for j = 1..r-1, read from the solution's stored v0 and w
(`TodaSolution.log_densities`); a V_0 that underflowed to zero in the
stored field counts as a vanishing slot.  The ensemble at inverse
temperature beta is

    p_j = D_j^beta / sum_k D_k^beta
    S   = -sum_j p_j log p_j                      (entropy, in [0, log r])
    F   = -(1/beta) log sum_j (D_j / D_ref)^beta  (free energy)
    R   = 1 - S / log r                           (redundancy)

All beta-powers are accumulated in log space with a max shift.  The
degenerate slot convention: for beta > 0 a vanishing V_0 contributes weight
0^beta = 0; for beta < 0 the degenerate slot is excluded from the ensemble
altogether, so the distribution ranges over the r-1 live metrics.  (The
exclusion is forced by the closed-form model entropy, which sums over the
live slots for either sign of beta, and by the entropy lower bound: near an
interior zero of the weight V_0 is positive but orders of magnitude below
the other densities, and a V_0^beta weight with beta < 0 would concentrate
the ensemble on the degenerate slot and collapse the entropy below the
model value.  See the README for the full convention.)

The reference density is 1 (flat) or (1 - |z|^2)^{-2} (poincare, on discs
only).  Differences of free energies at the same beta are reference
independent, which the tests exercise directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Field, Grid, inf_over, sup_norm
from .io import format_float, write_float_rows
from .toda import TodaSolution, model_profile
from .weight import _check_beta, _ensemble, _entropy_of, lambda_coefficients

log = logging.getLogger(__name__)

REFERENCES = ("flat", "poincare")


@dataclass(frozen=True)
class ThermoField:
    grid: Grid
    r: int
    beta: float
    reference: str
    p: tuple            # r Fields, slot 0 first
    entropy: Field
    free_energy: Field
    redundancy: Field
    lower_redundancy: float
    upper_redundancy: float


def thermo_field(sol: TodaSolution, beta: float,
                 reference: str = "flat") -> ThermoField:
    beta = _check_beta(beta)
    log_ref = _log_reference(sol.grid, reference)
    logits = beta * sol.log_densities()
    if beta < 0.0:
        logits[0] = -np.inf  # degenerate slot never competes for beta < 0
    p, log_z = _ensemble(logits)
    s = _entropy_of(p)
    f = log_ref - log_z / beta
    logr = math.log(sol.r)
    rvals = 1.0 - s / logr
    rfield = Field(sol.grid, rvals)
    return ThermoField(
        grid=sol.grid, r=sol.r, beta=beta, reference=reference,
        p=tuple(Field(sol.grid, p[a]) for a in range(sol.r)),
        entropy=Field(sol.grid, s),
        free_energy=Field(sol.grid, f),
        redundancy=rfield,
        lower_redundancy=inf_over(rfield, sol.grid.interior),
        upper_redundancy=sup_norm(rfield, sol.grid.interior),
    )


def model_free_energy_field(grid: Grid, r: int, beta: float,
                            reference: str = "flat") -> Field:
    """Closed-form free energy of the degenerate solution on a unit subdisc.

    Its slot densities lambda_j e^u share the profile u, so
    F = log D_ref - u - (1/beta) log sum_j lambda_j^beta.
    """
    beta = _check_beta(beta)
    u = model_profile(grid, "model free energy")
    log_ref = _log_reference(grid, reference)
    _, log_z = _ensemble(beta * np.log(lambda_coefficients(r)))
    return Field(grid, log_ref - u - log_z / beta)


# ---------------------------------------------------------------------------
# CSV emission


def write_thermo_csv(path: str, sol: TodaSolution, tf: ThermoField) -> None:
    """One row per node: coordinates, p_0..p_{r-1}, S, F, R."""
    grid = sol.grid
    coords = ["x", "y"] if grid.mode == "cartesian" else ["rho"]
    header = coords + [f"p_{j}" for j in range(sol.r)] + ["S", "F", "R"]
    cols = [grid.x] + ([grid.y] if grid.mode == "cartesian" else [])
    cols += [f.values for f in tf.p] + [tf.entropy.values,
                                        tf.free_energy.values,
                                        tf.redundancy.values]
    lines = [
        f"# r={sol.r}",
        f"# beta={format_float(tf.beta)}",
        f"# reference={tf.reference}",
        f"# weight={sol.weight.describe()}",
        f"# residual_sup={format_float(sol.residual_sup)}",
        ",".join(header),
    ]
    body = np.column_stack(cols)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        write_float_rows(fh, body)
    log.info("wrote thermo csv %s (%d rows)", path, body.shape[0])


# ---------------------------------------------------------------------------
# reference densities


def _log_reference(grid: Grid, reference: str) -> np.ndarray:
    if reference == "flat":
        return np.zeros(grid.nodes)
    if reference == "poincare":
        return model_profile(grid, "poincare reference")
    raise ConfigurationError(
        f"reference must be one of {REFERENCES}, got {reference!r}")
