"""Solver and ensemble analytics for cyclic Toda field equations on planar grids."""

from .errors import (ConfigurationError, ConvergenceError, InternalError,
                     TodaKitError, ValidationError)
from .grid import Field, Grid, build_grid, inner_mask
from .toda import (
    SolverConfig,
    TodaSolution,
    energy_density,
    recover_diagonal_metric,
    solve_toda,
    toda_residual,
)
from .weight import (
    ModelConstants,
    WeightDensity,
    evaluate_density,
    lambda_coefficients,
    make_weight,
    model_constants,
    weight_from_dict,
)

from .thermo import (
    ThermoField,
    model_free_energy_field,
    thermo_field,
    write_thermo_csv,
)
from .io import dumps_json, format_float, load_solution, save_solution, write_json
from .verify import CheckReport, render_table, reports_to_dict, run_suite, suite_passed

__version__ = "0.1.0"
