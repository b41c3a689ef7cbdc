"""Exact minimum-energy attitude observer on the unit quaternions.

The observer propagates the unique minimizer of a quadratic signal-energy
cost together with the gradient and Hessian of the induced value function,
expressed in the ambient coordinates of the embedding space. The package
also ships a brute-force trajectory optimizer used to verify the observer
against direct numerical optimization, a simulation harness, and a small
command line (``mef simulate|check|sweep``).
"""

import types as _types

from .config import (
    DEFAULTS,
    ConfigError,
    apply_overrides,
    build_run_config,
    load_config_file,
    merge_with_defaults,
    parse_config_text,
)
from .filter import (
    FilterConfig,
    ObserverState,
    SignalSample,
    SingularPError,
    StepTrace,
    correction_delta,
    forcing_terms,
    gradient_rate,
    hessian_rate,
    init,
    optimality_residual,
    state_estimate,
    step,
    value_rate,
)
from .liegroup import (
    GeneratorBasis,
    NotInAlgebraError,
    adjoint_coords,
    exp_group,
    quaternion_basis,
    quaternion_wedge,
    upsilon,
    upsilon_bar,
    vee,
    wedge,
)
from .quaternion import (
    BASIS,
    XI_ORIGIN,
    AttitudeScenario,
    NoiseModel,
    Quaternion,
    attitude_error_angle,
    build_sample,
    group_from_quaternion,
    measurement_matrix,
    quat_product,
    velocity_coords,
)
from .simulation import (
    CSV_HEADER,
    LogRecord,
    RunConfig,
    Truth,
    corrupt,
    initial_observer_hessian,
    observe,
    run,
    simulate_truth,
    write_csv,
)

__version__ = "0.1.0"

# The brute-force verifier's names, which load mef.bruteforce on first use
# (see __getattr__): only check needs it.
_VERIFIER = (
    "DiscretizedProblem",
    "InfeasibleTerminalError",
    "check_critical_point",
    "gradient_hessian_at",
    "value_at",
)

# Every name imported above and the verifier's, and nothing else (the
# submodules themselves are not part of the flat namespace).
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
    + list(_VERIFIER)
)


def __getattr__(name: str):
    if name in _VERIFIER:
        from . import bruteforce

        return getattr(bruteforce, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
