"""End-to-end gate for the package.

Eight numbered criteria, one test each, in order: randomized critical-point
identity, the two bundled 100 s scenarios, agreement with the brute-force
optimizer, manifold preservation, the algebra identity battery, the scalar
Riccati reduction, and bitwise CSV determinism. Every test prints a single
``criterion N: PASS/FAIL`` line with the measured numbers.
"""

import time

import numpy as np
import pytest

from mef import (
    BASIS,
    XI_ORIGIN,
    FilterConfig,
    GeneratorBasis,
    GroupElement,
    ObserverState,
    SignalSample,
    adjoint_coords,
    build_run_config,
    check_critical_point,
    exp_group,
    gradient_hessian_at,
    merge_with_defaults,
    run,
    step,
    upsilon,
    upsilon_bar,
    vee,
    wedge,
)
from mef.cli import build_verification_problem, main
from mef.config import read_config_source

from conftest import (
    correction_at,
    gradient_rate_at,
    make_rng,
    random_filter_instance,
    random_unit_vector,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def timed_bundled_run(name: str):
    raw, _ = read_config_source(name)
    config = build_run_config(merge_with_defaults(raw))
    start = time.perf_counter()
    records, summary = run(config)
    wall = time.perf_counter() - start
    return records, summary, wall


@pytest.fixture(scope="module")
def noiseless_run():
    return timed_bundled_run("noiseless")


@pytest.fixture(scope="module")
def noisy_run():
    return timed_bundled_run("noisy")


def test_criterion_1_correction_is_a_critical_point():
    rng = make_rng(77)
    start = time.perf_counter()
    worst = 0.0
    projector = upsilon(BASIS, XI_ORIGIN).T
    cfg = FilterConfig(origin_xi=XI_ORIGIN)
    for _ in range(1000):
        state, sample = random_filter_instance(rng)
        delta = correction_at(state, sample, cfg)
        rate = gradient_rate_at(state, sample, delta, cfg)
        worst = max(worst, float(np.linalg.norm(projector @ rate)))
    wall = time.perf_counter() - start
    passed = worst <= 1e-9 and wall < 5.0
    report(1, passed, f"max tangential gradient rate {worst:.3e}, {wall:.2f} s")
    assert worst <= 1e-9
    assert wall < 5.0


def test_criterion_2_noiseless_scenario_converges(noiseless_run):
    records, summary, wall = noiseless_run
    err = np.array([r.error_angle for r in records])
    t = np.array([r.t for r in records])
    final = summary["final_error_rad"]
    residual = summary["max_opt_residual"]
    # Envelope after the transient: maxima over 5 s windows must not grow.
    maxima = [
        float(err[(t >= lo) & (t < lo + 5.0)].max())
        for lo in np.arange(5.0, 100.0, 5.0)
    ]
    monotone = all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))
    passed = final < 0.05 and monotone and residual <= 1e-6 and wall < 10.0
    report(
        2,
        passed,
        f"final {final:.3e} rad, envelope monotone {monotone}, "
        f"max residual {residual:.3e}, {wall:.2f} s",
    )
    assert final < 0.05
    assert monotone
    assert residual <= 1e-6
    assert wall < 10.0


def test_criterion_3_noisy_scenario_converges(noisy_run):
    records, summary, wall = noisy_run
    residual = summary["max_opt_residual"]
    crossing = next(
        (r.t for r in records if r.error_angle < 0.2), float("inf")
    )
    passed = crossing <= 20.0 and residual <= 1e-6 and wall < 10.0
    report(
        3,
        passed,
        f"error below 0.2 rad at t={crossing:g} s, "
        f"max residual {residual:.3e}, {wall:.2f} s",
    )
    assert crossing <= 20.0
    assert residual <= 1e-6
    assert wall < 10.0


def test_criterion_4_filter_matches_bruteforce_optimizer():
    start = time.perf_counter()
    agreement = {}
    critical = {}
    for dt in (2e-3, 1e-3, 5e-4):
        problem, state = build_verification_problem({}, dt)
        grad, hess = gradient_hessian_at(problem, XI_ORIGIN)
        agreement[dt] = (
            float(np.linalg.norm(state.eta - grad)) / float(np.linalg.norm(grad)),
            float(np.linalg.norm(state.H - hess)) / float(np.linalg.norm(hess)),
        )
        critical[dt] = check_critical_point(grad, BASIS, XI_ORIGIN)
    wall = time.perf_counter() - start
    grad_rel, hess_rel = agreement[1e-3]
    ratios = (critical[2e-3] / critical[1e-3], critical[1e-3] / critical[5e-4])
    scaling_ok = all(1.5 <= r <= 2.5 for r in ratios)
    passed = (
        grad_rel <= 1e-4
        and hess_rel <= 1e-4
        and max(critical.values()) <= 1e-5
        and scaling_ok
        and wall < 60.0
    )
    report(
        4,
        passed,
        f"grad rel {grad_rel:.3e}, hess rel {hess_rel:.3e}, "
        f"critical max {max(critical.values()):.3e}, "
        f"dt ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {wall:.1f} s",
    )
    assert grad_rel <= 1e-4
    assert hess_rel <= 1e-4
    assert max(critical.values()) <= 1e-5
    assert scaling_ok
    assert wall < 60.0


def test_criterion_5_estimate_stays_on_unit_sphere(noiseless_run, noisy_run):
    drift = 0.0
    for records, _, _ in (noiseless_run, noisy_run):
        norms = np.array([np.linalg.norm(r.q_est) for r in records])
        drift = max(drift, float(np.abs(norms - 1.0).max()))
    passed = drift <= 1e-9
    report(5, passed, f"max |norm(q_est) - 1| = {drift:.3e} over both runs")
    assert drift <= 1e-9


def test_criterion_6_algebra_identities_hold():
    rng = make_rng(606)
    start = time.perf_counter()
    worst = {"roundtrip": 0.0, "action": 0.0, "transposed": 0.0,
             "exp": 0.0, "adjoint": 0.0}
    eye = np.eye(4)
    for _ in range(10_000):
        u = rng.uniform(0.0, np.pi) * random_unit_vector(rng)
        v = rng.uniform(0.0, np.pi) * random_unit_vector(rng)
        x = rng.standard_normal(4)
        A = wedge(BASIS, u)
        worst["roundtrip"] = max(
            worst["roundtrip"], float(np.linalg.norm(vee(BASIS, A) - u))
        )
        worst["action"] = max(
            worst["action"], float(np.linalg.norm(upsilon(BASIS, x) @ u - A @ x))
        )
        worst["transposed"] = max(
            worst["transposed"],
            float(np.linalg.norm(upsilon_bar(BASIS, x) @ u - A.T @ x)),
        )
        X = exp_group(BASIS, u)
        series = eye.copy()
        term = eye
        for k in range(1, 26):
            term = term @ A / k
            series += term
        worst["exp"] = max(worst["exp"], float(np.linalg.norm(X.matrix - series)))
        Y = exp_group(BASIS, v)
        hom = adjoint_coords(BASIS, X) @ adjoint_coords(BASIS, Y)
        worst["adjoint"] = max(
            worst["adjoint"],
            float(np.linalg.norm(adjoint_coords(BASIS, X @ Y) - hom)),
        )
    wall = time.perf_counter() - start
    top = max(worst.values())
    passed = top <= 1e-12 and wall < 5.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(6, passed, f"{detail}, {wall:.2f} s")
    assert top <= 1e-12, worst
    assert wall < 5.0


def test_criterion_7_scalar_hessian_follows_riccati_solution():
    b, q, c, r, h0 = 1.0, 10.0, 0.2, 0.5, 0.1
    alpha, beta = b * b / q, c * c * r

    def analytic(t: float) -> float:
        h_inf = np.sqrt(beta / alpha)
        th = np.tanh(alpha * h_inf * t)
        return h_inf * (h0 + h_inf * th) / (h_inf + h0 * th)

    # Frozen endpoint of the closed-form solution.
    assert abs(analytic(1.0) - 0.11879947394862744) < 1e-15

    basis = GeneratorBasis(np.zeros((0, 1, 1)))
    state = ObserverState(
        X_hat=GroupElement.identity(1), H=np.array([[h0]]),
        eta=np.zeros(1), t=0.0, basis=basis,
    )
    sample = SignalSample(
        U_coords=np.zeros(0), C=np.array([[c]]), y=np.array([0.0]),
        B=np.array([[b]]), Q=np.array([[q]]), R=np.array([[r]]),
        valid_until=1.0,
    )
    cfg = FilterConfig(origin_xi=np.array([1.0]), dt_max=1e-4)
    trace = []
    state, _, _ = step(state, sample, cfg, trace=trace)
    # Every substep end: the start of the next substep, then the final state.
    points = [(rec.t, rec.H) for rec in trace[1:]] + [(state.t, state.H)]
    worst = max(abs(float(H[0, 0]) - analytic(t)) for t, H in points)
    covered = abs(state.t - 1.0) <= 1e-12
    passed = covered and worst <= 1e-6
    report(7, passed, f"max |H - analytic| = {worst:.3e} over {len(points)} steps")
    assert covered
    assert worst <= 1e-6


def test_criterion_8_identical_runs_write_identical_csv(tmp_path):
    dirs = (tmp_path / "first", tmp_path / "second")
    for out in dirs:
        code = main(["simulate", "--config", "noisy", "--out", str(out)])
        assert code == 0
    first = (dirs[0] / "noisy.csv").read_bytes()
    second = (dirs[1] / "noisy.csv").read_bytes()
    passed = first == second and len(first) > 0
    report(8, passed, f"{len(first)} bytes, byte-identical {first == second}")
    assert first == second
    assert len(first) > 0
