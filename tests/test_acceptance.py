"""Acceptance battery: the package's advertised guarantees, end to end.

Each test checks one guarantee, pins its tolerances inline, and prints a
single PASS/FAIL line (repeated after the summary).  The certified-theorem
sweep is computed once in a session fixture and shared by the zero-violation
test and the order-dominance test.

Instances for the sweep are generated, never filtered: the tilt (or penalty
weight) is scaled so the predicted step uses at most 40% of the tightest
gate budget of the realized certificate, which makes every gate pass by
construction.  An instance whose gates still fail counts as a failure.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import perturbex as px
from perturbex import constants
from perturbex.harness import cmd_certify, cmd_scaling, run_scaling

TILT_FRACTION = 0.4  # of the tightest gate budget


def _xi(F: px.SpdOperator, v: np.ndarray) -> float:
    return F.dual_norm(v)


def _tilt_budget(cert: px.SmoothnessCertificate, F: px.SpdOperator) -> float:
    """Largest tilt size (curvature norm) that keeps every gate open at curvature ``F``.

    With the default metric ``D = F^{1/2}`` the metric-norm step ``b``
    equals ``xi``, so one number covers the order-2 fraction gate, both
    order-3 radius/tensor gates, and the order-4 quartic gate.
    """
    k, r = px.kappa_between(cert.metric, F), cert.radius
    caps = [
        constants.NU_DEFAULT * r / k,
        r / (constants.RADIUS_FACTOR_FNORM * k),
        r / constants.RADIUS_FACTOR_DNORM,
    ]
    if cert.tau3:
        caps.append(constants.TAU3_GATE_FNORM / (k**3 * cert.tau3))
        caps.append(constants.TAU3_GATE_DNORM / (k**2 * cert.tau3))
    if cert.tau4:
        caps.append(float(np.sqrt(constants.TAU4_GATE_DNORM / (k**2 * cert.tau4))))
    return min(caps)


def _certified_anchor(desc: dict, samples: int, seed: int):
    """Solve a zoo problem and estimate a certificate whose gates can pass.

    The order-2 stability gate needs ``omega kappa^2 < 1 - nu`` and omega
    shrinks with the ball, so the radius walks down until a 20% margin.
    """
    prob = px.oracle_from_descriptor(desc)
    f = prob.oracle
    xstar = px.newton_minimize(f, prob.x0).xhat
    F = px.spd_from_dense(f.hessian(xstar))
    cert = None
    for radius in (0.5, 0.3, 0.18, 0.1):
        cert = px.estimate_certificate(
            f, xstar, curvature=F, radius=radius, samples=samples, seed=seed
        )
        kappa = px.kappa_between(cert.metric, F)
        if cert.omega * kappa**2 <= 0.8 * (1.0 - constants.NU_DEFAULT):
            break
    return f, xstar, F, cert


def _calibrated_penalty(f, xstar, pen_at, w0: float, samples: int, seed: int):
    """Scale a penalty so its bias step lands mid-budget for every gate."""
    w = w0
    for _ in range(4):
        pen = pen_at(w)
        fG = px.smoothly_penalize(f, pen)
        FG = px.spd_from_dense(fG.hessian(xstar))
        cert = px.estimate_certificate(
            fG, xstar, curvature=FG, radius=0.4, samples=samples, seed=seed,
            include_omega=False,
        )
        M = pen.gradient(xstar)
        bG = cert.metric.norm(FG.solve(M))
        budget = _tilt_budget(cert, FG)
        if 0.15 * budget <= bG <= 0.5 * budget:
            break
        w *= TILT_FRACTION * budget / max(bG, 1e-30)
    return w, pen, cert


class _Tally:
    def __init__(self):
        self.instances = 0
        self.gate_failures: list[str] = []
        self.violations: list[str] = []
        self.pairs: list[tuple[str, float, float]] = []
        self.worst_slack = 0.0

    def add(self, label: str, rep, comp) -> None:
        if not rep.bounds.all_gates_pass:
            self.gate_failures.append(f"{label}: {rep.bounds.failed_gates()}")
        self.violations.extend(f"{label}/{v}" for v in comp.violations)
        if np.isfinite(comp.max_certified_slack):
            self.worst_slack = max(self.worst_slack, comp.max_certified_slack)
        self.instances += 1


def _verify_bias_pair(tally: _Tally, fG, rep3, rep4, xstar, label: str) -> None:
    """Solve the penalized problem ``fG`` once, then grade both bias orders."""
    sol = px.newton_minimize(fG, xstar)
    solution = px.Solution(sol.xhat - xstar, sol.value - fG.value(xstar), sol.stats())
    comps = {}
    for rep in (rep3, rep4):
        comp = px.compare_with_solution(rep, solution)
        tally.add(f"{label}/order{rep.order}", rep, comp)
        comps[rep.order] = comp
    prox = {g.name: g for g in rep4.bounds.diagnostics}["mu_proximity"]
    if not prox.satisfied:
        tally.gate_failures.append(
            f"{label}: mu_proximity {prox.lhs:.3g} > {prox.rhs:.3g}"
        )
    tally.pairs.append(
        (
            label,
            comps["3"].residual_norms["newton_residual_dinvf"],
            comps["4"].residual_norms["skew_residual_dinvf"],
        )
    )


@pytest.fixture(scope="session")
def theorem_suite():
    """Certified instances shared by the violation and dominance checks."""
    t0 = time.perf_counter()
    tally = _Tally()

    # Linear tilts: orders 2, 3, and 4 on every problem.
    for i in range(42):
        dim = 4 + 2 * (i % 3)
        if i % 2 == 0:
            desc = {
                "kind": "logistic", "dim": dim, "n": 9 * dim,
                "reg": 0.1 + 0.05 * (i % 3), "seed": 100 + i,
            }
        else:
            desc = {
                "kind": "logsumexp", "dim": dim, "n": 7 * dim,
                "reg": 0.1, "temp": 0.7 + 0.15 * (i % 3), "seed": 100 + i,
            }
        f, xstar, F, cert = _certified_anchor(desc, samples=120, seed=1000 + i)
        w = np.random.default_rng(2000 + i).standard_normal(f.dim)
        A = w * (TILT_FRACTION * _tilt_budget(cert, F) / _xi(F, w))
        g = px.SumOracle(f, tilt=A)
        sol = px.newton_minimize(g, xstar)
        solution = px.Solution(sol.xhat - xstar, sol.value - g.value(xstar), sol.stats())
        label = f"{desc['kind']}-{i}"
        by_order = {}
        for order in (2, 3, 4):
            rep = px.expansion_for_order(px.predict(f, xstar, A, curvature=F), cert, order)
            comp = px.compare_with_solution(rep, solution)
            tally.add(f"{label}/order{order}", rep, comp)
            by_order[order] = comp
        tally.pairs.append(
            (
                label,
                by_order[3].residual_norms["newton_residual_dinvf"],
                by_order[4].residual_norms["skew_residual_dinvf"],
            )
        )

    # Quadratic (ridge) penalties: bias statements at orders 3 and 4.
    for j in range(26):
        dim = (4, 5, 6)[j % 3]
        if j % 2 == 0:
            desc = {
                "kind": "logistic", "dim": dim, "n": 9 * dim,
                "reg": 0.12, "seed": 300 + j,
            }
        else:
            desc = {
                "kind": "logsumexp", "dim": dim, "n": 7 * dim,
                "reg": 0.1, "temp": 0.8 + 0.1 * (j % 2), "seed": 300 + j,
            }
        prob = px.oracle_from_descriptor(desc)
        f = prob.oracle
        xstar = px.newton_minimize(f, prob.x0).xhat
        rng = np.random.default_rng(4000 + j)
        if j % 3 == 2:
            v = rng.standard_normal(dim)
            base = np.outer(v, v) / (v @ v)  # rank-one ridge direction
        else:
            base = px.random_spd(rng, dim, cond=5.0).matrix
        w, _, cert = _calibrated_penalty(
            f, xstar, lambda u: px.QuadraticOracle(u * base), 0.02,
            samples=120, seed=5000 + j,
        )
        pen = px.QuadraticOracle(w * base)
        rep3 = px.smooth_penalty_bias(f, xstar, pen, cert, order=3)
        rep4 = px.smooth_penalty_bias(f, xstar, pen, cert, order=4)
        fG = px.smoothly_penalize(f, pen)
        _verify_bias_pair(tally, fG, rep3, rep4, xstar, f"ridge-{j}")

    # General smooth penalties (scaled soft-max terms) at orders 3 and 4.
    for m in range(14):
        dim = (4, 6)[m % 2]
        desc = {
            "kind": "logistic", "dim": dim, "n": 10 * dim,
            "reg": 0.15, "seed": 600 + m,
        }
        prob = px.oracle_from_descriptor(desc)
        f = prob.oracle
        xstar = px.newton_minimize(f, prob.x0).xhat
        lse = px.oracle_from_descriptor(
            {
                "kind": "logsumexp", "dim": dim, "n": 5 * dim,
                "reg": 0.05, "temp": 0.9, "seed": 700 + m,
            }
        ).oracle
        w, pen, cert = _calibrated_penalty(
            f, xstar, lambda u: px.SumOracle(lse, weights=(u,)), 0.05,
            samples=120, seed=800 + m,
        )
        rep3 = px.smooth_penalty_bias(f, xstar, pen, cert, order=3)
        rep4 = px.smooth_penalty_bias(f, xstar, pen, cert, order=4)
        fG = px.smoothly_penalize(f, pen)
        _verify_bias_pair(tally, fG, rep3, rep4, xstar, f"smooth-{m}")

    return {
        "instances": tally.instances,
        "gate_failures": tally.gate_failures,
        "violations": tally.violations,
        "pairs": tally.pairs,
        "worst_slack": tally.worst_slack,
        "elapsed": time.perf_counter() - t0,
    }


def test_quadratic_predictions_are_exact(criterion):
    """100 random quadratics: shift and value land within the exactness floors.

    Pinned tolerances: shift residual (curvature norm) at most
    1e-10 * (1 + ||step||), value residual at most 1e-12 * (1 + |value|);
    the whole sweep under 10 seconds.
    """
    t0 = time.perf_counter()
    failures = []
    dims = [2] * 34 + [10] * 33 + [50] * 33
    for k, dim in enumerate(dims):
        desc = {
            "kind": "quadratic", "dim": dim, "seed": 500 + k,
            "cond": (3.0, 30.0, 300.0)[k % 3],
        }
        prob = px.oracle_from_descriptor(desc)
        rng = np.random.default_rng(900 + k)
        A = 10.0 ** ((k % 5) - 3) * rng.standard_normal(dim)
        p = px.predict(prob.oracle, prob.minimizer, A, curvature=prob.curvature)
        comp = px.compare_with_solution(px.exact_quadratic_expansion(p), p.solution)
        if comp.violations or comp.max_certified_slack != 0.0:
            failures.append((desc, comp.residual_norms))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    passed = criterion(
        "quadratic response is exact",
        ok,
        f"100 instances, dims 2/10/50, {elapsed:.1f}s",
    )
    assert passed, failures[:3]


def test_ridge_bias_is_exact_on_quadratics(criterion):
    """100 random quadratic + ridge pairs hit the same exactness floors."""
    t0 = time.perf_counter()
    failures = []
    dims = [2] * 34 + [10] * 33 + [50] * 33
    for k, dim in enumerate(dims):
        desc = {
            "kind": "quadratic", "dim": dim, "seed": 1500 + k,
            "cond": (2.0, 20.0, 200.0)[k % 3],
        }
        prob = px.oracle_from_descriptor(desc)
        rng = np.random.default_rng(1900 + k)
        lam = 10.0 ** ((k % 4) - 2)
        if k % 3 == 0:
            v = rng.standard_normal(dim)
            G2 = lam * np.outer(v, v) / (v @ v)  # singular penalties are fine
        else:
            G2 = lam * px.random_spd(rng, dim, cond=8.0).matrix
        rep = px.ridge_bias_exact_quadratic(prob.curvature, G2, prob.minimizer)
        comp = px.compare_with_solution(rep, rep.prediction.solution)
        if comp.violations or comp.max_certified_slack != 0.0:
            failures.append((desc, lam, comp.residual_norms))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    passed = criterion(
        "ridge bias is exact on quadratics",
        ok,
        f"100 instances, weights 1e-2..1e1, {elapsed:.1f}s",
    )
    assert passed, failures[:3]


def test_certified_bounds_hold_across_the_zoo(criterion, theorem_suite):
    """At least 200 gate-passing instances with zero bound violations.

    Covers orders 2/3/4 under linear tilts on logistic and soft-max
    problems plus the ridge and smooth penalty statements (orders 3 and 4,
    including the order-4 proximity diagnostic), all within 5 minutes.
    """
    s = theorem_suite
    ok = (
        s["instances"] >= 200
        and not s["gate_failures"]
        and not s["violations"]
        and s["elapsed"] < 300.0
    )
    passed = criterion(
        "certified bounds hold across the zoo",
        ok,
        f"{s['instances']} instances, max slack {s['worst_slack']:.3f}, "
        f"{s['elapsed']:.1f}s",
    )
    assert passed, {
        "instances": s["instances"],
        "gate_failures": s["gate_failures"][:5],
        "violations": s["violations"][:5],
        "elapsed": s["elapsed"],
    }


def test_error_decay_rates_match_orders(criterion):
    """Log-log residual slopes on a shrinking tilt reach 2, 3, and 4.

    Pinned thresholds: Newton residual slope >= 1.85, skew-corrected
    residual slope >= 2.8, order-4 value error slope >= 3.8, fitted over
    the grid 2^-1..2^-8 on points above the 1e-12 floor, under a minute.
    """
    t0 = time.perf_counter()
    cfg = px.ExperimentConfig.from_dict(
        {
            "seed": 5,
            "problem": {"kind": "logistic", "dim": 10, "n": 80, "reg": 0.1, "seed": 5},
            "perturbation": {"kind": "linear", "seed": 11, "scale": 0.5},
        },
        "scaling",
    )
    report = run_scaling(cfg)
    elapsed = time.perf_counter() - t0
    slopes = {name: info["slope"] for name, info in report["slopes"].items()}
    targets = {"newton_residual": 1.85, "skew_residual": 2.8, "value_error_4": 3.8}
    bad = {
        name: slopes.get(name)
        for name, floor in targets.items()
        if slopes.get(name) is None or slopes[name] < floor
    }
    ok = not bad and elapsed < 60.0
    shown = ", ".join(
        f"{name} {slopes[name]:.2f}" for name in targets if slopes.get(name) is not None
    )
    passed = criterion("error decay matches expansion order", ok, f"{shown}, {elapsed:.1f}s")
    assert passed, (bad, report["rows"])


def test_cubic_envelope_holds_under_sampling(criterion, envelope_extremes):
    """For ``U >= I``, ``(3/4) r <= ||s|| <= r`` and ``tau r <= 1/3``, both
    envelope extremes stay at or below ``(tau/2) ||s||^3``: 50 random
    triples, 1e5 ball samples each, no excess.  One more input, with
    ``tau = 0``, reduces both envelopes to ``-+ (u - s)'U(u - s)``, whose
    extremes are exactly 0, at ``u = s``."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = -np.inf
    bad = []
    for t in range(51):
        dim = int(rng.integers(2, 9))
        body = px.random_spd(rng, dim, cond=float(rng.uniform(2.0, 40.0)))
        U = px.spd_from_dense(body.matrix + np.eye(dim))  # lifts the spectrum above 1
        r = float(rng.uniform(0.2, 2.0))
        tau = float(rng.uniform(0.0, 1.0)) / (3.0 * r) if t < 50 else 0.0
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        s = direction * r * float(rng.uniform(0.76, 0.999))
        snorm = float(np.linalg.norm(s))
        # The lemma's hypotheses hold by construction.
        lowest = np.linalg.eigvalsh(U.matrix)[0]
        assert lowest >= 1.0 and 0.75 * r <= snorm <= r and tau * r <= 1.0 / 3.0
        extremes = envelope_extremes(U, s, tau, r, seed=6000 + t)
        if tau == 0.0:
            assert extremes == (0.0, 0.0)
        bound = 0.5 * tau * snorm**3
        rhs = bound + 1e-9 * (1.0 + bound)
        for name, lhs in zip(("max_envelope", "min_envelope"), extremes):
            worst = max(worst, lhs / rhs)
            if lhs > rhs:
                bad.append((t, name, lhs, rhs))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    passed = criterion(
        "cubic envelope inequalities",
        ok,
        f"50 triples and tau = 0 x 1e5 samples, worst ratio {worst:.3f}, {elapsed:.1f}s",
    )
    assert passed, bad[:5]


def test_remainder_inequalities_and_tightness(criterion, logistic_certificate):
    """Sampled Taylor-remainder ratios stay at or below 1, and the cubic
    model with constant third derivative attains ratio 1 within 0.05."""
    f, xstar, F, cert = logistic_certificate
    gates = [("logistic", px.taylor_diagnostics(f, xstar, cert, samples=200, seed=3))]
    lse = px.oracle_from_descriptor(
        {"kind": "logsumexp", "dim": 6, "n": 42, "reg": 0.1, "temp": 0.9, "seed": 14}
    )
    ystar = px.newton_minimize(lse.oracle, lse.x0).xhat
    cert_lse = px.estimate_certificate(lse.oracle, ystar, radius=0.4, samples=150, seed=15)
    gates.append(
        ("logsumexp", px.taylor_diagnostics(lse.oracle, ystar, cert_lse, samples=150, seed=16))
    )
    bad = [(tag, g.name, g.lhs) for tag, found in gates for g in found if not g.satisfied]

    # f(x) = x^2/2 + x^3/6 with tau3 declared at the true value 1: the
    # gradient-remainder inequality is an equality, so the sampled worst
    # ratio must sit at 1.
    cubic = px.CustomOracle(
        dim=1,
        value=lambda x: 0.5 * float(x[0]) ** 2 + float(x[0]) ** 3 / 6.0,
        gradient=lambda x: np.array([float(x[0]) + 0.5 * float(x[0]) ** 2]),
        hessian=lambda x: np.array([[1.0 + float(x[0])]]),
        third_dir=lambda x, u: np.array([float(u[0]) ** 2]),
        fourth_dir=lambda x, u: np.array([0.0]),
    )
    cert1 = px.SmoothnessCertificate(
        metric=px.spd_from_dense(np.eye(1)), radius=1.0,
        omega=0.5, tau3=1.0, tau4=0.0,
    )
    gates1 = px.taylor_diagnostics(cubic, np.zeros(1), cert1, samples=150, seed=4)
    grad_ratio = next(g.lhs for g in gates1 if g.name == "gradient_remainder")
    tight = abs(grad_ratio - 1.0) <= 0.05
    ok = not bad and tight
    passed = criterion(
        "Taylor remainder certificates",
        ok,
        f"all sampled ratios <= 1, equality case at {grad_ratio:.4f}",
    )
    assert passed, (bad, grad_ratio)


def test_fourth_order_never_trails_third(criterion, theorem_suite):
    """The skew-corrected residual is at most the Newton residual (same
    norm) on every instance of the certified sweep."""
    pairs = theorem_suite["pairs"]
    floor = constants.EXACT_SHIFT_FLOOR
    offenders = [
        (label, r3, r4)
        for label, r3, r4 in pairs
        if r4 > r3 * (1.0 + 1e-9) + floor
    ]
    gains = [r3 / r4 for _, r3, r4 in pairs if r4 > 0]
    ok = bool(pairs) and not offenders
    passed = criterion(
        "fourth order dominates third",
        ok,
        f"{len(pairs)} instances, median improvement "
        f"{np.median(gains):.1f}x" if gains else f"{len(pairs)} instances",
    )
    assert passed, offenders[:5]


def test_reports_are_bytewise_deterministic(criterion, tmp_path):
    """Two runs of the same (config, seed) produce identical artifacts."""
    certify_raw = {
        "seed": 3,
        "problem": {"kind": "logistic", "dim": 6, "n": 48, "reg": 0.1, "seed": 3},
        "perturbation": {"kind": "linear", "scale": 0.02, "seed": 7},
        "orders": [2, 3, 4],
        "certificate": {"mode": "estimated", "samples": 120, "seed": 11, "radius": 0.5},
    }
    scaling_raw = {
        "seed": 5,
        "problem": {"kind": "logistic", "dim": 10, "n": 80, "reg": 0.1, "seed": 5},
        "perturbation": {"kind": "linear", "seed": 11, "scale": 0.5},
    }
    outcomes = []
    for name, raw, runner, artifacts in [
        ("certify", certify_raw, cmd_certify, ["report.json", "summary.csv"]),
        ("scaling", scaling_raw, cmd_scaling, ["report.json", "scaling.csv", "slopes.csv"]),
    ]:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(raw))
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = runner(str(cfg_path), str(out))
            blobs.append((code, [(out / art).read_bytes() for art in artifacts]))
        outcomes.append((name, blobs[0][0] == 0, blobs[0] == blobs[1]))
    ok = all(clean and same for _, clean, same in outcomes)
    passed = criterion(
        "bytewise-deterministic reports",
        ok,
        "certify + scaling artifacts compared as raw bytes",
    )
    assert passed, outcomes
