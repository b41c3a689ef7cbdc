"""
Cross-checking the filter against a brute-force optimizer
=========================================================

The filter's internal state claims to be the gradient and Hessian, at the
current estimate, of an accumulated disturbance-energy cost. That claim
is checkable: replay a run's substeps as one equality-constrained least
squares problem over the whole disturbance trajectory, solve it, and read
the cost's exact gradient and Hessian off the multipliers of the terminal
constraint.

Worth knowing before reading the numbers: the filter integrates its state
with explicit Euler, so the agreement improves linearly as the step size
shrinks. The critical-point residual below shows exactly that rate.
"""

import numpy as np

from mef import BASIS, XI_ORIGIN, check_critical_point, gradient_hessian_at
from mef.cli import build_verification_problem

# A short noisy run is enough; check.* keys control its shape. The
# observer starts at the truth so the quantities stay well scaled.
overrides = {"check.duration": "0.5"}

print("dt        critical_pt   grad_rel      hess_rel      steps")
for dt in (4e-3, 2e-3, 1e-3, 5e-4):
    problem, state = build_verification_problem(overrides, dt)

    # Exact derivatives of the replayed cost at the origin, from one
    # reduction of the KKT system and m + 1 solves.
    grad, hess = gradient_hessian_at(problem, XI_ORIGIN)
    grad_rel = np.linalg.norm(state.eta - grad) / np.linalg.norm(grad)
    hess_rel = np.linalg.norm(state.H - hess) / np.linalg.norm(hess)

    # Tangential gradient norm at the estimate; zero for the exact
    # minimizer, O(dt) for the integrated one.
    critical = check_critical_point(grad, BASIS, XI_ORIGIN)
    print(f"{dt:.0e}   {critical:.3e}    {grad_rel:.3e}    "
          f"{hess_rel:.3e}    {problem.steps}")
