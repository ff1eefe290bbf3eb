from __future__ import annotations

import copy
import csv
import dataclasses
import importlib
import importlib.util
import json
import os
import sys
import warnings

import jsonschema
import numpy as np
import pytest

import perturbex.constants as constants
import perturbex.expand as expand
import perturbex.harness as harness
import perturbex.linalg as linalg
import perturbex.solver as solver
from perturbex import (
    LogisticOracle,
    QuadraticOracle,
    SumOracle,
    compare_with_solution,
    declared_certificate,
    oracle_from_descriptor,
    predict,
    smooth_penalty_bias,
)
from perturbex.cli import main
from perturbex.harness import ExperimentConfig, run_selftest


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_config():
    return {
        "seed": 5,
        "problem": {"kind": "logistic", "dim": 6, "n": 48, "reg": 0.1, "seed": 3},
        "perturbation": {"kind": "linear", "scale": 0.02, "seed": 7},
        "orders": [2, 3, 4],
        "certificate": {"mode": "estimated", "samples": 150, "seed": 11, "radius": 0.5},
    }


def _command_config(command):
    """A small valid config of ``command`` that sets every top-level key it reads."""
    if command == "certify":
        return _base_config()
    payload = {key: _base_config()[key] for key in ("seed", "problem")}
    if command == "scaling":
        payload["perturbation"] = {"kind": "linear", "scale": 0.5, "seed": 7}
        payload["scaling"] = {"eps_grid": [0.5, 0.25, 0.125]}
    else:
        payload["certificate"] = {"mode": "estimated", "samples": 20, "seed": 11}
        payload["sweep"] = {"lambda_grid": [0.1], "g2": {"mode": "identity"}}
    return payload


class TestCertify:
    def test_exit_zero_with_artifacts(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _base_config())
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "perturbex.report.v7"
        assert [r["order"] for r in report["results"]] == ["2", "3", "4"]
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(row["violations"] == "" for row in rows)
        assert all(row["certifying"] == "1" for row in rows)

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _base_config())
        main(["certify", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["certify", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_seed_override_changes_the_tilt(self, tmp_path):
        payload = _base_config()
        del payload["perturbation"]["seed"]  # fall back to the global seed
        cfg = _write(tmp_path, "cfg.json", payload)
        main(["certify", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["certify", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "99"])
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["tilt"] != b["tilt"]

    def test_exact_order_on_quadratic_problem(self, tmp_path):
        payload = {
            "seed": 1,
            "problem": {"kind": "quadratic", "dim": 4, "seed": 2, "cond": 8},
            "perturbation": {"kind": "linear", "scale": 0.3, "seed": 3},
            "orders": ["exact"],
            "certificate": {"mode": "estimated", "samples": 40, "seed": 4},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["results"][0]
        assert entry["order"] == "exact"
        assert "skipped" not in entry
        assert entry["verification"]["max_certified_slack"] == 0.0

    def test_exact_order_skipped_off_quadratic(self, tmp_path):
        payload = _base_config()
        payload["orders"] = ["exact", 3]
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "skipped" in report["results"][0]
        assert report["warnings"] == ["order exact skipped: objective is not quadratic"]

    def test_declared_certificate_without_tau4_skips_order4(self, tmp_path):
        payload = _base_config()
        payload["certificate"] = {
            "mode": "declared", "radius": 0.5, "omega": 0.1,
            "tau3": 0.5,
        }
        payload["orders"] = [3, 4]
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        orders = {r["order"]: r for r in report["results"]}
        assert "skipped" not in orders["3"]
        assert "skipped" in orders["4"]
        assert any("order 4" in w for w in report["warnings"])

    def test_lying_certificate_exits_two(self, tmp_path):
        payload = _base_config()
        payload["certificate"] = {
            "mode": "declared", "radius": 0.5, "omega": 1e-12,
            "tau3": 1e-12, "tau4": 1e-12,
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert any(r.get("verification", {}).get("violations") for r in report["results"])

    def test_sampled_underestimate_is_caught(self, tmp_path):
        """Sampled constants too small for this log-sum-exp case fail verification.

        At the default 200 samples and inflation 1.5 the order-3 Newton
        residual radius in the dual metric norm is exceeded although every
        gate it requires passes (the sampled tau3 passes ``tau3_dnorm``);
        the run exits 2.  Order 2 claims nothing: the sampled omega fails
        ``stability_margin``.
        """
        payload = {
            "seed": 3,
            "problem": {
                "kind": "logsumexp", "dim": 30, "seed": 3, "temp": 1.0, "n": 30, "reg": 0.01,
            },
            "perturbation": {"kind": "linear", "seed": 3, "scale": 0.05},
            "orders": [2, 3, 4],
            "certificate": {"mode": "estimated", "samples": 200, "inflation": 1.5, "radius": 0.5},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        gates_held = {}
        for res in report["results"]:
            bounds = res["report"]["bounds"]
            requires = {b["name"]: b["requires"] for b in bounds["shift_bounds"]}
            requires["value"] = bounds["value_bound"]["requires"]
            satisfied = {g["name"]: g["satisfied"] for g in bounds["preconditions"]}
            for name in res["verification"]["violations"]:
                gates_held[res["order"], name] = all(satisfied[g] for g in requires[name])
        assert gates_held == {("3", "newton_residual_dinvf"): True}
        second = next(res for res in report["results"] if res["order"] == "2")
        gate = harness._named(second["report"]["bounds"]["preconditions"], "stability_margin")
        assert not gate["satisfied"] and not second["verification"]["certifying"]

    def test_infinite_advisory_radius_is_strict_json(self, tmp_path):
        """A failed ``stability_margin`` gate leaves infinite advisory radii.

        They are written as the strings ``"Infinity"`` / ``"-Infinity"``, so
        the report parses under a parser that rejects non-finite numbers.
        """
        payload = _base_config()
        payload["orders"] = [2]
        payload["certificate"] = {"mode": "declared", "radius": 0.5, "omega": 2.0}
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-finite JSON number {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        bounds = report["results"][0]["report"]["bounds"]
        assert {b["radius"] for b in bounds["shift_bounds"]} == {"Infinity"}
        assert bounds["value_bound"]["lower"] == "-Infinity"

    def test_require_gates_exits_three(self, tmp_path):
        payload = _base_config()
        payload["perturbation"]["scale"] = 5.0  # way past every gate budget
        payload["orders"] = [3]
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(
            ["certify", "--config", cfg, "--out", str(out), "--require-gates"]
        ) == 3
        # Without the flag the same run reports the gate failure but exits 0.
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0

    def test_ridge_perturbation_through_config(self, tmp_path):
        payload = {
            "seed": 5,
            "problem": {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.15, "seed": 9},
            "perturbation": {"kind": "quadratic", "lambda": 0.05},
            "orders": [3, 4],
            "certificate": {"mode": "estimated", "samples": 150, "seed": 21, "radius": 0.5},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0


@pytest.fixture
def solves(monkeypatch):
    """Objectives passed to ``newton_minimize``, through every module holding it."""
    original = solver.newton_minimize
    calls = []

    def counting(f, *args, **kwargs):
        calls.append(f)
        return original(f, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "perturbex" or name.startswith("perturbex."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def _recording(monkeypatch, name):
    """Keep everything the harness builds through ``harness.<name>``."""
    original = getattr(harness, name)
    built = []

    def record(*args, **kwargs):
        rep = original(*args, **kwargs)
        built.append(rep)
        return rep

    monkeypatch.setattr(harness, name, record)
    return built


def _verified_entries(report):
    return [r for r in report["results"] if "verification" in r]


def _order_results(report):
    for res in report["results"]:
        for block in (res, res.get("order3"), res.get("order4")):
            if block is not None and "report" in block:
                yield block


class TestOneSolvePerProblem:
    def test_certify_solves_anchor_and_one_verification(self, tmp_path, solves):
        cfg = _write(tmp_path, "cfg.json", _base_config())
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(solves) == 2

    def test_ridge_sweep_solves_once_per_lambda(self, tmp_path, solves):
        payload = {
            "seed": 8,
            "problem": {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.15, "seed": 9},
            "certificate": {"mode": "estimated", "samples": 60, "seed": 31, "radius": 0.5},
            "sweep": {"lambda_grid": [0.05, 0.1], "g2": {"mode": "identity"}},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["ridge-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(solves) == 3
        report = json.loads((out / "report.json").read_text())
        assert all({"order3", "order4"} <= set(entry) for entry in report["results"])

    def test_all_orders_skipped_solves_only_the_anchor(self, tmp_path, solves):
        payload = _base_config()
        payload["orders"] = ["exact"]
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert len(solves) == 1
        report = json.loads((out / "report.json").read_text())
        assert "skipped" in report["results"][0]

    def test_linear_orders_match_single_report_verification(self, tmp_path, monkeypatch):
        built = _recording(monkeypatch, "expansion_for_order")
        cfg = _write(tmp_path, "cfg.json", _base_config())
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        f = oracle_from_descriptor(report["problem"]).oracle
        xstar = np.array(report["anchor"]["xstar"])
        entries = _verified_entries(report)
        assert len(entries) == len(built) == 3
        for entry, rep in zip(entries, built):
            solution = dataclasses.replace(rep.prediction).solution  # a solve of its own
            alone = compare_with_solution(rep, solution)
            assert entry["verification"] == json.loads(json.dumps(alone.to_dict()))
            assert report["solution"] == json.loads(json.dumps(solution.to_dict()))

    def test_ridge_orders_match_single_report_verification(self, tmp_path, monkeypatch):
        built = _recording(monkeypatch, "expansion_for_order")
        payload = {
            "seed": 1,
            "problem": {"kind": "quadratic", "dim": 4, "seed": 2, "cond": 8},
            "perturbation": {"kind": "quadratic", "lambda": 0.2},
            "orders": ["exact", 2, 3, 4],
            "certificate": {"mode": "estimated", "samples": 40, "seed": 4},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        f = oracle_from_descriptor(report["problem"]).oracle
        xstar = np.array(report["anchor"]["xstar"])
        entries = _verified_entries(report)
        assert [e["order"] for e in entries] == ["exact", "3", "4"]
        assert len(built) == 3
        for entry, rep in zip(entries, built):
            solution = dataclasses.replace(rep.prediction).solution  # a solve of its own
            alone = compare_with_solution(rep, solution)
            assert entry["verification"] == json.loads(json.dumps(alone.to_dict()))
            assert report["solution"] == json.loads(json.dumps(solution.to_dict()))


class TestSolutionOncePerProblem:
    """A perturbed problem's solve is stated once, beside its tilt and certificate."""

    VERIFICATION_KEYS = {"entries", "certifying", "violations", "max_certified_slack"}
    SOLUTION_KEYS = {"actual_shift", "actual_value_change", "solver"}

    def test_solution_placement(self, tmp_path):
        runs = {
            "certify": ("certify", _base_config()),
            "skipped": ("certify", {**_base_config(), "orders": ["exact"]}),
            "sweep": ("ridge-sweep", _sweep_config([0.0, 0.05])),
        }
        reports = {}
        for name, (command, payload) in runs.items():
            cfg = _write(tmp_path, f"{name}.json", payload)
            assert main([command, "--config", cfg, "--out", str(tmp_path / name)]) == 0
            reports[name] = json.loads((tmp_path / name / "report.json").read_text())

        certify = reports["certify"]
        assert set(certify["solution"]) == self.SOLUTION_KEYS
        assert len(certify["solution"]["actual_shift"]) == len(certify["tilt"])
        assert reports["skipped"]["solution"] is None
        for entry in reports["sweep"]["results"]:
            assert set(entry["solution"]) == self.SOLUTION_KEYS
            assert len(entry["solution"]["actual_shift"]) == len(entry["tilt"])
        assert "solution" not in reports["sweep"]

        blocks = [
            res["verification"] for report in reports.values() for res in _order_results(report)
        ]
        assert len(blocks) == 3 + 2 * 2
        for ver in blocks:
            assert set(ver) == self.VERIFICATION_KEYS
        text = json.dumps(reports)
        for key in ("residual_norms", "slack_ratios"):
            assert key not in text
        assert text.count('"actual_shift"') == 1 + 2


def _sweep_config(grid, g2=None):
    return {
        "seed": 8,
        "problem": {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.15, "seed": 9},
        "certificate": {"mode": "estimated", "samples": 60, "seed": 31, "radius": 0.5},
        "sweep": {"lambda_grid": grid, "g2": g2 or {"mode": "identity"}},
    }


class TestKappaOncePerPair:
    """No eigensolve for ``kappa`` when the metric's Gram is the curvature."""

    @pytest.fixture
    def kappa_solves(self, monkeypatch):
        original = np.linalg.eigvalsh
        calls = []

        def counting(*args, **kwargs):
            if sys._getframe(1).f_code is linalg.kappa_between.__code__:
                calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def test_certify_computes_kappa_once(self, tmp_path, kappa_solves):
        cfg = _write(tmp_path, "cfg.json", _base_config())
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert len(kappa_solves) == 0
        report = json.loads((out / "report.json").read_text())
        assert "kappa" not in report["certificate"]
        gates = report["results"][0]["report"]["bounds"]["preconditions"]
        assert "metric_dominated" not in {g["name"] for g in gates}

    def test_ridge_sweep_computes_kappa_once_per_lambda(self, tmp_path, kappa_solves):
        cfg = _write(tmp_path, "cfg.json", _sweep_config([0.05, 0.1]))
        assert main(["ridge-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(kappa_solves) == 0

    def test_library_penalty_bias_needs_no_eigensolve(self, kappa_solves):
        """``smooth_penalty_bias`` factors ``F_pen`` afresh; the metric's Gram is
        the command's factor, whose matrix is the same, so kappa is exactly 1."""
        prob = oracle_from_descriptor(_base_config()["problem"])
        f = prob.oracle
        anchor = solver.newton_minimize(f, prob.x0)
        pen = QuadraticOracle(0.1 * np.eye(f.dim))
        F = predict(f, anchor.xhat, pen, curvature=anchor.curvature).F
        cert = declared_certificate(F, radius=0.5, omega=None, tau3=0.5)
        rep = smooth_penalty_bias(f, anchor.xhat, pen, cert, order=3)
        assert rep.prediction.F is not F
        wide = next(b for b in rep.bounds.shift_bounds if b.name == "shift_d_wide")
        assert wide.radius == constants.SHIFT_FACTOR_FNORM * rep.prediction.xi
        assert len(kappa_solves) == 0

    def test_unrelated_pair_solves_once(self, kappa_solves):
        # D^2 = diag(1, 4, 9) against F = diag(4, 9, 1): the ratio peaks at 9.
        F = linalg.spd_from_dense(np.diag([4.0, 9.0, 1.0]))
        M = linalg.spd_from_dense(np.diag([1.0, 4.0, 9.0]))
        assert linalg.kappa_between(M, F) == pytest.approx(3.0, rel=1e-14)
        assert len(kappa_solves) == 1


class TestSweepIsOneFactoredFamily:
    """A run evaluates and factors ``grad^2 f(x*)`` once; a sweep factors each
    non-zero weight's ``H0 + lam G2`` once, with no eigendecomposition.

    Every Hessian evaluation counts, the Newton steps of the anchor and the
    verification solves included: the anchor's converging step is the one
    evaluation at ``x*``, and each verification solve starts from it.  The
    anchor evaluates two Hessians (at the start point and at ``x*``), each
    verification solve at a non-zero tilt one (at its end) and a weight-0
    solve none.  Each evaluated Hessian is factored once, where it is
    evaluated, and weight 0's ``H0 + 0 G2`` is ``H0``, whose factor the anchor
    hands on, so a run's factorizations are its Hessians plus one per
    non-zero weight, and no matrix reaches ``np.linalg.cholesky`` twice.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        eigh = np.linalg.eigh
        hessian = LogisticOracle.hessian
        post_init = linalg.SpdOperator.__post_init__
        cholesky = np.linalg.cholesky
        seen = {"eigh": 0, "factors": 0, "hessian_points": [], "cholesky": []}

        def counting_eigh(*args, **kwargs):
            seen["eigh"] += 1
            return eigh(*args, **kwargs)

        def counting_hessian(oracle, x):
            seen["hessian_points"].append(np.array(x))
            return hessian(oracle, x)

        def counting_factor(op):
            seen["factors"] += 1
            post_init(op)

        def recording_cholesky(a):
            seen["cholesky"].append(np.array(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        monkeypatch.setattr(LogisticOracle, "hessian", counting_hessian)
        monkeypatch.setattr(linalg.SpdOperator, "__post_init__", counting_factor)
        return seen

    @staticmethod
    def _repeats(matrices) -> int:
        """How many of ``matrices`` equal, bit for bit, one before them."""
        return sum(
            any(np.array_equal(a, b) for b in matrices[:i]) for i, a in enumerate(matrices)
        )

    @staticmethod
    def _evaluations_at_anchor(counts, payload, run):
        """Run ``run`` and count its Hessian evaluations at the problem's ``x*``."""
        prob = oracle_from_descriptor(payload["problem"])
        xstar = solver.newton_minimize(prob.oracle, prob.x0).xhat
        counts["eigh"] = counts["factors"] = 0
        counts["hessian_points"].clear()
        counts["cholesky"].clear()
        run()
        assert len(counts["hessian_points"]) > 1  # the solves' later steps count too
        return sum(np.array_equal(x, xstar) for x in counts["hessian_points"])

    @pytest.mark.parametrize(
        "g2, weights",
        [
            ({"mode": "identity"}, 3),
            ({"mode": "matrix", "matrix": np.eye(5).tolist()}, 3),
            ({"mode": "rank1", "seed": 12}, 3),
        ],
    )
    def test_factor_and_hessian_counts(self, tmp_path, counts, g2, weights):
        payload = _sweep_config([0.0, 0.05, 0.1], g2)
        cfg = _write(tmp_path, "cfg.json", payload)
        out = str(tmp_path / "o")
        at_xstar = self._evaluations_at_anchor(
            counts, payload, lambda: main(["ridge-sweep", "--config", cfg, "--out", out])
        )
        assert at_xstar == 1
        assert len(counts["hessian_points"]) == 2 + 2
        # One per Hessian evaluated and one per non-zero weight.
        assert counts["factors"] == len(counts["hessian_points"]) + weights - 1
        # Each factorization and each weight's floor test runs one Cholesky,
        # and no matrix reaches it twice.
        assert len(counts["cholesky"]) == counts["factors"] + weights
        assert self._repeats(counts["cholesky"]) == 0
        assert counts["eigh"] == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["exit_code"] == 0
        solvers = [entry["solution"]["solver"] for entry in report["results"]]
        assert [s["hessians"] for s in solvers] == [0, 1, 1]

    def test_certify_evaluates_one_hessian_at_anchor(self, tmp_path, counts):
        payload = _base_config()
        cfg = _write(tmp_path, "cfg.json", payload)
        out = str(tmp_path / "o")
        at_xstar = self._evaluations_at_anchor(
            counts, payload, lambda: main(["certify", "--config", cfg, "--out", out])
        )
        assert at_xstar == 1
        assert len(counts["hessian_points"]) == 2 + 1
        # The tilt steps on the anchor's factor, held to the floor once.
        assert counts["factors"] == len(counts["hessian_points"])
        assert len(counts["cholesky"]) == counts["factors"] + 1
        assert self._repeats(counts["cholesky"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["exit_code"] == 0
        assert report["anchor"]["solver"]["hessians"] == 2
        assert report["solution"]["solver"]["hessians"] == 1

    def test_scaling_steps_on_the_anchor_factor(self, tmp_path, counts):
        payload = _command_config("scaling")
        cfg = _write(tmp_path, "cfg.json", payload)
        out = str(tmp_path / "o")
        self._evaluations_at_anchor(
            counts, payload, lambda: main(["scaling", "--config", cfg, "--out", out])
        )
        assert counts["factors"] == len(counts["hessian_points"])
        assert len(counts["cholesky"]) == counts["factors"] + 1
        assert self._repeats(counts["cholesky"]) == 0


def _no_eigh_configs():
    smooth = {"kind": "logsumexp", "dim": 6, "n": 12, "reg": 0.0, "temp": 1.0, "seed": 9}
    tilt = _base_config()
    ridge = {**tilt, "perturbation": {"kind": "quadratic", "lambda": 0.05}}
    penalty = {**tilt, "perturbation": {"kind": "smooth", "penalty": smooth, "weight": 0.3}}
    grid = [0.0, 0.05]
    rank1 = {"mode": "rank1", "seed": 12}
    matrix = {"mode": "matrix", "matrix": np.diag(np.arange(1.0, 6.0)).tolist()}
    return [
        pytest.param("certify", tilt, id="certify-tilt"),
        pytest.param("certify", ridge, id="certify-ridge"),
        pytest.param("certify", penalty, id="certify-smooth"),
        pytest.param("scaling", _command_config("scaling"), id="scaling"),
        pytest.param("ridge-sweep", _sweep_config(grid), id="sweep-identity"),
        pytest.param("ridge-sweep", _sweep_config(grid, rank1), id="sweep-rank1"),
        pytest.param("ridge-sweep", _sweep_config(grid, matrix), id="sweep-matrix"),
    ]


class TestNoEigendecomposition:
    """No command takes an eigendecomposition: every operator is a Cholesky factor."""

    @pytest.mark.parametrize("command, payload", _no_eigh_configs())
    def test_command_never_calls_eigh(self, tmp_path, monkeypatch, command, payload):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestBenchmarkTracerHooks:
    def test_traced_names_exist(self):
        """``bench/tracer.py`` patches each of these names; all must resolve."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module, name in tracer.TRACED_FUNCTIONS:
            assert callable(getattr(importlib.import_module(f"perturbex.{module}"), name))
        for method in tracer.ORACLE_METHODS:
            assert callable(getattr(sys.modules["perturbex.oracle"].Oracle, method))
        assert isinstance(harness.ExperimentConfig.__dict__["from_file"], classmethod)

    def test_trace_mode_wraps_once_and_restores(self, tmp_path):
        """Installing the tracer over a run wraps each target once; uninstalling undoes it.

        A class that defines only ``__init__`` inherits its methods, so it
        must not be patched a second time: no wrapper may wrap another one.
        """
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)

        oracle_module = sys.modules["perturbex.oracle"]
        owners = [
            mod for name, mod in sys.modules.items()
            if name == "perturbex" or name.startswith("perturbex.")
        ]
        owners.append(harness.ExperimentConfig)
        owners += [
            value for value in vars(oracle_module).values()
            if isinstance(value, type) and issubclass(value, oracle_module.Oracle)
        ]

        def attributes():
            return {
                (owner.__name__, attr): value
                for owner in owners
                for attr, value in vars(owner).items()
            }

        def function(value):
            return value.__func__ if isinstance(value, classmethod) else value

        certify_cfg = _write(tmp_path, "certify.json", _command_config("certify"))
        sweep_cfg = _write(tmp_path, "sweep.json", _command_config("ridge-sweep"))
        before = attributes()
        tracer = tracer_module.Tracer()
        tracer.install(0)
        try:
            during = attributes()
            wrapped = [key for key, value in during.items() if value is not before[key]]
            assert ("SumOracle", "hessian") in wrapped
            for key in wrapped:
                inner = function(during[key]).__wrapped__
                assert inner is function(before[key]), key
                assert not hasattr(inner, "__wrapped__"), key
            assert main(["certify", "--config", certify_cfg, "--out", str(tmp_path / "c")]) == 0
            assert main(["ridge-sweep", "--config", sweep_cfg, "--out", str(tmp_path / "s")]) == 0
        finally:
            tracer.uninstall()

        after = attributes()
        assert [key for key, value in before.items() if after.get(key) is not value] == []
        names = {span[0] for span in tracer.spans}
        assert {
            "oracle.hessian", "solver.anchor", "solver.verify", "smoothness.certificate"
        } <= names


class TestConfigValidation:
    def test_missing_problem_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", {"seed": 1})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("perturbex: error: ")

    def test_unknown_keys_are_rejected(self, tmp_path):
        payload = _base_config()
        payload["certifcate"] = payload.pop("certificate")  # typo'd key
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_tiny_temp_is_a_one_line_error(self, tmp_path, capsys):
        payload = _base_config()
        payload["problem"] = {"kind": "logsumexp", "dim": 4, "n": 20, "temp": 1e-300, "seed": 1}
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "temp" in err

    def test_huge_reg_runs_without_warnings(self, tmp_path):
        payload = _base_config()
        payload["problem"]["reg"] = 1e300
        cfg = _write(tmp_path, "cfg.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_nu_is_not_a_config_key(self, tmp_path):
        payload = _base_config()
        payload["nu"] = 0.5
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(
            ["certify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 1
        assert capsys.readouterr().err.startswith("perturbex: error: ")

    def test_estimated_mode_requires_a_seed(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {
                    "problem": {"kind": "quadratic", "dim": 2, "seed": 0},
                    "certificate": {"mode": "estimated"},
                },
                "certify",
            )

    def test_bad_order_value_rejected(self, tmp_path):
        payload = _base_config()
        payload["orders"] = [7]
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_schema_document_satisfies_the_metaschema(self):
        """The document is a constant, so it is checked here, not on every import."""
        jsonschema.Draft202012Validator.check_schema(harness.CONFIG_SCHEMA)
        broken = copy.deepcopy(harness.CONFIG_SCHEMA)
        broken["$defs"]["certify"]["properties"]["seed"] = {"type": "integr"}
        with pytest.raises(jsonschema.SchemaError):
            jsonschema.Draft202012Validator.check_schema(broken)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.pop("problem"),
            lambda c: c.update(certifcate=c.pop("certificate")),
            lambda c: c.update(orders=[7]),
            lambda c: c["problem"].update(dim="six"),
            lambda c: c["certificate"].update(samples=-3, radius="wide"),
            lambda c: c["certificate"].update(tau3=99.0),
        ],
    )
    def test_cached_validator_raises_what_validate_raises(self, edit):
        """The validator built once at import reports the error jsonschema.validate would."""
        raw = _base_config()
        edit(raw)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(raw, harness.COMMAND_SCHEMAS["certify"])
        with pytest.raises(jsonschema.ValidationError) as got:
            ExperimentConfig.from_dict(raw, "certify")
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "command, edit, key",
        [
            ("ridge-sweep", lambda c: c.update(perturbation={"kind": "linear"}), "perturbation"),
            ("ridge-sweep", lambda c: c.update(orders=[3, 4]), "orders"),
            ("certify", lambda c: c.update(sweep={"lambda_grid": [0.1]}), "sweep"),
            ("certify", lambda c: c.update(scaling={"eps_grid": [0.5, 0.25]}), "scaling"),
            ("scaling", lambda c: c.update(certificate={"mode": "estimated"}), "certificate"),
            ("scaling", lambda c: c.update(orders=[2]), "orders"),
            ("certify", lambda c: c["certificate"].update(tau3=99.0), "certificate.tau3"),
            (
                "certify",
                lambda c: c.update(problem={"kind": "quadratic", "dim": 6, "seed": 3, "reg": 0.1}),
                "problem.reg",
            ),
            ("certify", lambda c: c["perturbation"].update({"lambda": 0.1}), "perturbation.lambda"),
            pytest.param(
                "certify",
                lambda c: c.update(
                    perturbation={"kind": "quadratic", "lambda": 5.0, "matrix": np.eye(6).tolist()}
                ),
                "perturbation.lambda",
                id="certify-lambda-beside-matrix",
            ),
            ("certify", lambda c: c.update(solver={"tol": 1e-9}), "solver"),
            ("scaling", lambda c: c.update(solver={"max_iter": 50}), "solver"),
            ("ridge-sweep", lambda c: c.update(solver={}), "solver"),
        ],
    )
    def test_unread_key_is_a_one_line_error(self, tmp_path, capsys, command, edit, key):
        """A key the command does not read exits 1 with one line naming it."""
        payload = _command_config(command)
        edit(payload)
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"perturbex: error: {key}: not ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "perturbation",
        [
            {"kind": "linear", "vector": [0.1, 0.2]},
            {"kind": "quadratic", "matrix": np.eye(2).tolist()},
            {"kind": "smooth", "penalty": {"kind": "logsumexp", "dim": 2, "n": 4, "seed": 1}},
        ],
    )
    def test_wrong_dimension_is_a_one_line_error(self, tmp_path, capsys, perturbation):
        payload = _base_config()
        payload["perturbation"] = perturbation
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ("dimension 2" in err or "shape (2,)" in err)

    @pytest.mark.parametrize(
        "command, edit, key",
        [
            (
                "scaling",
                lambda c: c.update(
                    problem={"kind": "logsumexp", "dim": 1, "n": 2, "temp": 1e-3, "reg": 0.0,
                             "seed": 3},
                    perturbation={"kind": "linear", "scale": 1.0},
                    scaling={"eps_grid": [2.16e138, 1e100]},
                ),
                "problem or perturbation.scale or scaling.eps_grid.0",
            ),
            (
                "certify",
                lambda c: c.update(perturbation={"kind": "linear", "vector": [1.0, 2.0]}),
                "perturbation.vector",
            ),
            (
                "certify",
                lambda c: c.update(
                    perturbation={"kind": "quadratic", "matrix": np.eye(2).tolist()}
                ),
                "perturbation.matrix",
            ),
            (
                "certify",
                lambda c: c.update(
                    perturbation={"kind": "smooth",
                                  "penalty": {"kind": "quadratic", "dim": 2, "seed": 1}}
                ),
                "perturbation.penalty.dim",
            ),
            (
                "certify",
                lambda c: c.update(
                    perturbation={"kind": "quadratic", "matrix": np.triu(np.ones((6, 6))).tolist()}
                ),
                "perturbation.matrix",
            ),
            (
                "certify",
                lambda c: c.update(
                    perturbation={"kind": "quadratic", "matrix": (-np.eye(6)).tolist()}
                ),
                "perturbation.matrix",
            ),
            (
                "ridge-sweep",
                lambda c: c["sweep"].update(g2={"mode": "matrix", "matrix": np.eye(2).tolist()}),
                "sweep.g2.matrix",
            ),
            (
                "ridge-sweep",
                lambda c: c["sweep"].update(
                    g2={"mode": "matrix", "matrix": np.triu(np.ones((5, 5))).tolist()}
                ),
                "sweep.g2.matrix",
            ),
            (
                "ridge-sweep",
                lambda c: c["sweep"].update(g2={"mode": "matrix", "matrix": (-np.eye(5)).tolist()}),
                "sweep.g2.matrix",
            ),
        ],
        ids=[
            "scaling-overflow", "vector-shape", "matrix-shape", "penalty-dim", "matrix-asymmetric",
            "matrix-indefinite", "g2-shape", "g2-asymmetric", "g2-indefinite",
        ],
    )
    def test_perturbation_error_names_its_key(self, tmp_path, capsys, command, edit, key):
        """A perturbation the program cannot use exits 1 with one line led by its key."""
        sweep = command == "ridge-sweep"
        payload = _sweep_config([0.0, 0.1]) if sweep else _command_config(command)
        edit(payload)
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"perturbex: error: {key}: "), err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("certificate", "radius", {"mode": "declared", "radius": float("nan")}),
            ("certificate", "radius", {"mode": "estimated", "radius": float("nan")}),
            ("perturbation", "scale", {"kind": "linear", "scale": float("inf")}),
        ],
    )
    def test_non_finite_number_is_a_one_line_error(
        self, tmp_path, capsys, section, key, value
    ):
        """NaN and Infinity are not JSON numbers: the key is named and nothing is written."""
        payload = _base_config()
        payload[section] = value
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"perturbex: error: {section}.{key}: ")
        assert not out.exists()

    def test_seed_flag_satisfies_the_seed_rule(self, tmp_path):
        payload = _base_config()
        del payload["seed"], payload["certificate"]["seed"]
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
        out = tmp_path / "b"
        assert main(["certify", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["seed"] == 4

    def test_scaling_needs_no_seed(self, tmp_path):
        """The seed rule is about certificates, which scaling does not build."""
        payload = _command_config("scaling")
        del payload["seed"]
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestScaling:
    def test_slopes_match_expansion_orders(self, tmp_path):
        payload = {
            "seed": 2,
            "problem": {"kind": "logistic", "dim": 8, "n": 64, "reg": 0.1, "seed": 4},
            "perturbation": {"kind": "linear", "scale": 1.0, "seed": 6},
            "scaling": {"eps_grid": [2.0**-k for k in range(1, 7)]},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        slopes = {k: v["slope"] for k, v in report["slopes"].items()}
        assert slopes["newton_residual"] == pytest.approx(2.0, abs=0.3)
        assert slopes["skew_residual"] == pytest.approx(3.0, abs=0.4)
        assert slopes["value_error_4"] == pytest.approx(4.0, abs=0.4)
        with open(out / "scaling.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6

    @pytest.mark.parametrize("kind", ["smooth", "quadratic"])
    def test_non_linear_perturbation_is_rejected(self, tmp_path, capsys, kind):
        payload = {
            "seed": 2,
            "problem": {"kind": "quadratic", "dim": 4, "seed": 4, "cond": 5},
            "perturbation": {
                "kind": kind,
                "penalty": {"kind": "logsumexp", "dim": 4, "n": 8, "seed": 1},
            },
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "perturbation.kind" in err and kind in err
        assert not out.exists()

    def test_floor_annotation_when_all_points_sink(self, tmp_path):
        payload = {
            "seed": 2,
            "problem": {"kind": "quadratic", "dim": 4, "seed": 4, "cond": 5},
            "perturbation": {"kind": "linear", "scale": 1e-6, "seed": 6},
            "scaling": {"eps_grid": [0.5, 0.25, 0.125]},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # A quadratic has no cubic term: the skew residual sits on the floor.
        assert report["slopes"]["skew_residual"]["note"] == "floor"


class TestRidgeSweep:
    def test_zero_lambda_row_is_all_zero(self, tmp_path):
        payload = {
            "seed": 8,
            "problem": {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.15, "seed": 9},
            "certificate": {"mode": "estimated", "samples": 100, "seed": 31, "radius": 0.5},
            "sweep": {"lambda_grid": [0.0, 0.05], "g2": {"mode": "identity"}},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["ridge-sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["bG"]) == 0.0
        assert float(rows[0]["slack_o3"]) == 0.0
        assert float(rows[1]["bG"]) > 0.0
        assert float(rows[1]["residual_o4"]) <= float(rows[1]["residual_o3"])

    def test_rank_one_penalty_base(self, tmp_path):
        payload = {
            "seed": 8,
            "problem": {"kind": "logistic", "dim": 4, "n": 32, "reg": 0.2, "seed": 10},
            "certificate": {"mode": "estimated", "samples": 100, "seed": 33, "radius": 0.5},
            "sweep": {"lambda_grid": [0.1], "g2": {"mode": "rank1", "seed": 12}},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["ridge-sweep", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"][0]["order3"]["verification"]["violations"] == []


    def test_matrix_mode_without_matrix_names_the_key(self, tmp_path, capsys):
        payload = {
            "seed": 8,
            "problem": {"kind": "logistic", "dim": 4, "n": 32, "reg": 0.2, "seed": 10},
            "certificate": {"mode": "estimated", "samples": 20, "seed": 33},
            "sweep": {"lambda_grid": [0.1], "g2": {"mode": "matrix"}},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["ridge-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sweep.g2.matrix" in err

    def test_certificate_without_tau4_skips_order4(self, tmp_path, capsys):
        """A declared certificate without tau4 skips order 4 at every weight,
        with a warning naming the weight, as ``certify`` skips it."""
        payload = {
            "seed": 8,
            "problem": {"kind": "logistic", "dim": 4, "n": 32, "reg": 0.2, "seed": 10},
            "certificate": {"mode": "declared", "radius": 0.5, "omega": 0.1, "tau3": 0.5},
            "sweep": {"lambda_grid": [0.1, 0.2]},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["ridge-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        assert report["warnings"] == [
            "lambda 0.1: order 4 skipped: certificate lacks tau4",
            "lambda 0.2: order 4 skipped: certificate lacks tau4",
        ]
        assert all("order3" in e and "order4" not in e for e in report["results"])
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["radius_o3"] != "" and row["actual_bias_norm"] != ""
            assert [row[k] for k in ("gate_tau4", "radius_o4", "residual_o4", "slack_o4")] == [
                "", "", "", ""
            ]


class TestSelftest:
    def test_passes_cleanly(self, tmp_path):
        assert main(["selftest", "--out", str(tmp_path / "st")]) == 0
        log = json.loads((tmp_path / "st" / "selftest.json").read_text())
        assert log["exit_code"] == 0
        assert any("all checks passed" in line for line in log["log"])

    def test_corrupted_constant_is_detected(self, monkeypatch):
        monkeypatch.setattr(constants, "OMEGA_MAX", 0.5)
        code, lines = run_selftest()
        assert code == 2
        assert "FAIL" in lines[0]
        assert "OMEGA_MAX" in lines[0]

    def test_log_names_each_command_run(self):
        code, lines = run_selftest()
        assert code == 0
        assert any(line.startswith("selftest: certify ") for line in lines)
        assert any(line.startswith("selftest: ridge-sweep ") for line in lines)
        assert any("order 4 skipped: certificate lacks tau4" in line for line in lines)
        assert not any("envelope" in line for line in lines)

    def test_broken_command_path_fails(self, monkeypatch):
        original = harness.expansion_for_order

        def shifted(*args, **kwargs):
            rep = original(*args, **kwargs)
            return dataclasses.replace(
                rep,
                predicted_shift=rep.predicted_shift + 1e-3,
                predicted_value_change=rep.predicted_value_change + 1e-3,
            )

        monkeypatch.setattr(harness, "expansion_for_order", shifted)
        code, lines = run_selftest()
        assert code == 2
        failed = [line for line in lines if "... FAIL" in line]
        assert len(failed) == 3
        assert all(" certify " in line or " ridge-sweep " in line for line in failed)


class TestOneTiltBuilder:
    """Every perturbed problem is stated by ``predict``."""

    def test_smooth_penalty_bias_matches_certify(self, tmp_path, monkeypatch):
        certs = _recording(monkeypatch, "_build_certificate")
        penalty = {"kind": "logsumexp", "dim": 5, "n": 12, "reg": 0.0, "temp": 1.0, "seed": 9}
        payload = {
            "seed": 4,
            "problem": {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.1, "seed": 6},
            "perturbation": {"kind": "smooth", "penalty": penalty, "weight": 0.3},
            "orders": [3, 4],
            "certificate": {"mode": "estimated", "samples": 60, "seed": 5, "radius": 0.5},
        }
        out = tmp_path / "o"
        cfg = _write(tmp_path, "c.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        f = oracle_from_descriptor(payload["problem"]).oracle
        pen = SumOracle(oracle_from_descriptor(penalty).oracle, weights=(0.3,))
        xstar = np.array(report["anchor"]["xstar"])
        (cert,) = certs
        entries = _verified_entries(report)
        assert [entry["order"] for entry in entries] == ["3", "4"]
        for entry in entries:
            rep = smooth_penalty_bias(f, xstar, pen, cert, order=int(entry["order"])).to_dict()
            assert json.dumps(entry["report"], sort_keys=True) == json.dumps(rep, sort_keys=True)

    @pytest.mark.parametrize("kind", ["tilt", "ridge", "smooth"])
    def test_held_hessian_and_factor_give_the_same_problem(self, kind):
        desc = {"kind": "logistic", "dim": 4, "n": 30, "reg": 0.1, "seed": 2}
        prob = oracle_from_descriptor(desc)
        f = prob.oracle
        anchor = solver.newton_minimize(f, prob.x0)
        perturbation = {
            "tilt": np.array([0.1, -0.2, 0.05, 0.0]),
            "ridge": QuadraticOracle(0.2 * np.eye(4)),
            "smooth": SumOracle(LogisticOracle(np.eye(4), np.ones(4)), weights=(0.3,)),
        }[kind]
        p = predict(f, anchor.xhat, perturbation)
        held = predict(f, anchor.xhat, perturbation, curvature=anchor.curvature)
        H = p.g.hessian(anchor.xhat)
        np.testing.assert_array_equal(p.F.matrix, linalg.spd_from_dense(H).matrix)
        np.testing.assert_array_equal(held.F.matrix, p.F.matrix)
        np.testing.assert_array_equal(held.A, p.A)
        np.testing.assert_array_equal(p.g.gradient(anchor.xhat), f.gradient(anchor.xhat) + p.A)


class TestPenaltyOmega:
    def test_penalty_certificates_state_no_omega(self, tmp_path):
        """A penalty's certificate samples no remainder, so it claims no omega."""
        out = tmp_path / "sweep"
        cfg = _write(tmp_path, "sweep.json", _sweep_config([0.0, 0.1]))
        assert main(["ridge-sweep", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        report = json.loads(text)
        assert [entry["certificate"]["omega"] for entry in report["results"]] == [None, None]
        assert '"omega": 0.0' not in text
        payload = _base_config()
        payload["perturbation"] = {"kind": "quadratic", "lambda": 0.05}
        out = tmp_path / "certify"
        cfg = _write(tmp_path, "certify.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["omega"] is None
        assert report["certificate"]["provenance"]["raw"]["omega"] is None
        assert report["results"][0]["order"] == "2" and "skipped" in report["results"][0]


class TestSkipsComeFromTheLibrary:
    """An order is skipped where the perturbed problem or its certificate lacks
    what the order needs, whatever the kind of perturbation."""

    def _certify(self, tmp_path, payload):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())

    def test_ridge_with_default_orders_skips_order_two(self, tmp_path):
        payload = _base_config()
        del payload["orders"]
        payload["perturbation"] = {"kind": "quadratic", "lambda": 0.05}
        report = self._certify(tmp_path, payload)
        assert report["warnings"] == ["order 2 skipped: certificate lacks omega"]
        assert [entry["order"] for entry in _verified_entries(report)] == ["3", "4"]

    def test_smooth_quadratic_penalty_states_the_exact_order(self, tmp_path):
        payload = {
            "seed": 1,
            "problem": {"kind": "quadratic", "dim": 4, "seed": 2, "cond": 8},
            "perturbation": {
                "kind": "smooth",
                "penalty": {"kind": "quadratic", "dim": 4, "seed": 5},
                "weight": 0.2,
            },
            "orders": ["exact", 2, 3],
            "certificate": {"mode": "estimated", "samples": 40, "seed": 4},
        }
        report = self._certify(tmp_path, payload)
        assert report["warnings"] == ["order 2 skipped: certificate lacks omega"]
        exact, third = _verified_entries(report)
        assert exact["order"] == "exact" and third["order"] == "3"
        assert exact["verification"]["max_certified_slack"] == 0.0
        assert exact["verification"]["violations"] == []

    def test_declared_penalty_omega_builds_order_two(self, tmp_path):
        payload = _base_config()
        payload["perturbation"] = {"kind": "quadratic", "lambda": 0.05}
        payload["certificate"] = {
            "mode": "declared", "radius": 0.5, "omega": 0.1, "tau3": 0.5, "tau4": 0.5,
        }
        report = self._certify(tmp_path, payload)
        assert report["warnings"] == []
        assert [entry["order"] for entry in _verified_entries(report)] == ["2", "3", "4"]


class TestDeclaredOmega:
    def test_omitted_omega_is_not_stated(self, tmp_path):
        payload = {
            "problem": {"kind": "logistic", "dim": 3, "n": 30, "seed": 1},
            "certificate": {"mode": "declared"},
        }
        out = tmp_path / "o"
        cfg = _write(tmp_path, "c.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["omega"] is None
        assert "order 2 skipped: certificate lacks omega" in report["warnings"]

    def test_stated_omega_builds_order_two(self, tmp_path):
        payload = _base_config()
        payload["orders"] = [2, 3]
        payload["certificate"] = {"mode": "declared", "radius": 0.5, "omega": 0.1, "tau3": 0.5}
        out = tmp_path / "o"
        cfg = _write(tmp_path, "c.json", payload)
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["omega"] == 0.1
        assert [entry["order"] for entry in _verified_entries(report)] == ["2", "3"]


class TestOverflowingRadii:
    """A radius past the float range is an advisory ``+inf`` behind a failed gate."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            (
                "certify",
                {
                    "problem": {"kind": "logistic", "dim": 2, "n": 20, "seed": 1},
                    "certificate": {
                        "mode": "declared", "omega": 1e308, "tau3": 1e308, "tau4": 1e308,
                    },
                },
            ),
        ],
        ids=["declared-constants"],
    )
    def test_exits_cleanly_with_infinite_radii(self, tmp_path, capsys, command, payload):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        argv = [command, "--config", cfg, "--out", str(out), "--seed", "1"]
        assert main(argv) == 0
        assert main(argv + ["--require-gates"]) == 3
        assert capsys.readouterr().err == ""
        text = (out / "report.json").read_text()
        assert "NaN" not in text
        infinite = 0
        for res in _order_results(json.loads(text)):
            bounds = res["report"]["bounds"]
            satisfied = {g["name"]: g["satisfied"] for g in bounds["preconditions"]}
            value = bounds["value_bound"]
            sides = [(b["radius"], b["requires"]) for b in bounds["shift_bounds"]]
            sides += [(value["lower"], value["requires"]), (value["upper"], value["requires"])]
            for side, requires in sides:
                if side in ("Infinity", "-Infinity"):
                    infinite += 1
                    assert not all(satisfied[g] for g in requires)
        assert infinite > 0


class TestUnderflowedConstants:
    """A weight of 1e300 makes the metric ``F^{1/2}`` about 1e150, so the
    sampled ``tau3`` and ``tau4`` (about 1e-450) underflow to 0; on a
    non-quadratic objective that 0 is not stated as exactness."""

    def test_ridge_weight_skips_its_orders(self, tmp_path, capsys):
        """A sweep weight whose certificate leaves tau3 unstated skips its
        orders with warnings naming it; the other weights are untouched."""

        def sweep(grid, name):
            payload = {
                "problem": {"kind": "logistic", "dim": 3, "n": 20, "seed": 1},
                "sweep": {"lambda_grid": grid},
            }
            out = tmp_path / name
            argv = ["ridge-sweep", "--config", _write(tmp_path, f"{name}.json", payload),
                    "--out", str(out), "--seed", "1"]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            assert code == 0
            assert capsys.readouterr().err == ""
            rows = (out / "sweep.csv").read_text().splitlines()
            return json.loads((out / "report.json").read_text()), rows

        report, rows = sweep([0.05, 1e300], "mixed")
        assert report["exit_code"] == 0
        assert report["warnings"] == [
            "lambda 1e+300: order 3 skipped: certificate lacks tau3",
            "lambda 1e+300: order 4 skipped: certificate lacks tau3",
        ]
        kept, huge = report["results"]
        assert "order3" not in huge and "order4" not in huge
        assert huge["solution"] is None
        assert huge["certificate"]["tau3"] is None
        # Every cell that reads a skipped order or the (absent) solve is empty.
        cells = rows[2].split(",")
        assert [i for i, cell in enumerate(cells) if cell == ""] == [2, 3, 5, 6, 7, 8, 9, 10, 11]

        alone, alone_rows = sweep([0.05], "alone")
        assert alone["warnings"] == []
        assert kept == alone["results"][0]
        assert rows[:2] == alone_rows

    def test_smooth_weight_skips_every_order(self, tmp_path, capsys):
        payload = {
            "problem": {"kind": "logistic", "dim": 2, "n": 20, "seed": 1},
            "perturbation": {
                "kind": "smooth",
                "penalty": {"kind": "quadratic", "dim": 2, "seed": 3},
                "weight": 1e300,
            },
        }
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        assert report["warnings"] == [
            "order 2 skipped: certificate lacks omega",
            "order 3 skipped: certificate lacks tau3",
            "order 4 skipped: certificate lacks tau3",
        ]
        assert _verified_entries(report) == []
        cert = report["certificate"]
        assert cert["tau3"] is None and cert["tau4"] is None
        assert cert["provenance"]["raw"]["tau3"] == 0.0
        assert cert["provenance"]["raw"]["tau4"] == 0.0


class TestNonFiniteSamples:
    def test_underflowing_radius_is_a_one_line_error(self, tmp_path, capsys):
        payload = {
            "seed": 1,
            "problem": {"kind": "logistic", "dim": 3, "n": 30, "seed": 1},
            "certificate": {"mode": "estimated", "radius": 1e-300},
        }
        cfg = _write(tmp_path, "c.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["certify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "omega" in err and "radius" in err
        assert [str(w.message) for w in caught] == []

    def test_overflowing_tilt_step_is_a_one_line_error(self, tmp_path, capsys):
        payload = {
            "seed": 1,
            "problem": {"kind": "logistic", "dim": 2, "n": 20, "seed": 1},
            "perturbation": {"kind": "linear", "vector": [1e308, 1e308]},
        }
        cfg = _write(tmp_path, "c.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["certify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "perturbex: error: problem or perturbation.vector: "
            "the Newton step F^-1 A of the tilt is not finite\n"
        )
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "perturbation, key",
        [
            ({"kind": "linear", "scale": 1e308}, "perturbation.scale"),
            ({"kind": "quadratic", "lambda": 1e308}, "problem or perturbation.lambda"),
            (
                {
                    "kind": "smooth", "weight": 1e308,
                    "penalty": {"kind": "quadratic", "dim": 3, "seed": 2},
                },
                "problem or perturbation.weight",
            ),
        ],
        ids=["scale", "lambda", "weight"],
    )
    def test_overflowing_perturbation_names_its_key(self, tmp_path, capsys, perturbation, key):
        payload = {
            "seed": 1,
            "problem": {"kind": "logistic", "dim": 3, "n": 12, "seed": 1},
            "perturbation": perturbation,
        }
        cfg = _write(tmp_path, "c.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["certify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"perturbex: error: {key}: overflow") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "problem, eps_grid, message",
        [
            ({"kind": "logistic", "dim": 3, "n": 30, "seed": 1}, [1e300, 1e200], "Newton step"),
            ({"kind": "quadratic", "dim": 5, "seed": 1}, [1e-6, 1e200], "Newton step"),
            ({"kind": "logistic", "dim": 3, "n": 30, "seed": 1}, [1e150, 1e50], "skew term"),
        ],
        ids=["logistic-newton", "quadratic-newton", "logistic-skew"],
    )
    def test_unpredictable_scaling_row_is_a_one_line_error(
        self, tmp_path, capsys, problem, eps_grid, message
    ):
        """Each row is predicted before its solve, so a tilt too large fails there."""
        payload = {
            "seed": 1,
            "problem": problem,
            "perturbation": {"kind": "linear", "scale": 1},
            "scaling": {"eps_grid": eps_grid},
        }
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["scaling", "--config", cfg, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert [str(w.message) for w in caught] == [] and not out.exists()

    def test_huge_scaling_rows_are_finite(self, tmp_path):
        """A residual whose sum of squares overflows is taken from the scaled
        vector: the row at eps 1e100 is finite and raises no warning."""
        payload = {
            "seed": 1,
            "problem": {"kind": "logistic", "dim": 3, "n": 30, "seed": 1},
            "perturbation": {"kind": "linear", "scale": 1},
            "scaling": {"eps_grid": [1e100, 1e50]},
        }
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert np.isfinite(rows).all()
        # The skew residual grows as eps^2: the huge row is the small one times 1e100.
        assert rows[0][2] == pytest.approx(1e100 * rows[1][2], rel=1e-12)

    def test_repeated_eps_is_a_one_line_error(self, tmp_path, capsys):
        payload = {
            "seed": 1,
            "problem": {"kind": "logistic", "dim": 3, "n": 30, "seed": 1},
            "scaling": {"eps_grid": [0.5, 0.5]},
        }
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["scaling", "--config", cfg, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "scaling.eps_grid" in err and "non-unique" in err
        assert caught == [] and not out.exists()


class TestOnePredictionPerProblem:
    """Each perturbed problem is predicted once; its skew term is built only for
    order 4, once; the report states the prediction once, and every order's
    shift and value change are read from it."""

    @pytest.fixture
    def skews(self, monkeypatch):
        original = expand.skewness_correction
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(expand, "skewness_correction", counting)
        return calls

    def _run(self, tmp_path, command, payload):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())

    def test_certify_predicts_once(self, tmp_path, monkeypatch):
        predictions = _recording(monkeypatch, "predict")
        self._run(tmp_path, "certify", _base_config())
        assert len(predictions) == 1

    def test_ridge_sweep_predicts_once_per_weight(self, tmp_path, monkeypatch):
        predictions = _recording(monkeypatch, "predict")
        self._run(tmp_path, "ridge-sweep", _sweep_config([0.0, 0.05, 0.1]))
        assert len(predictions) == 3

    @pytest.mark.parametrize(
        "orders, certificate, evaluated",
        [
            ([2, 3], None, 0),
            ([2, 3, 4], None, 1),
            ([2, 3, 4], {"mode": "declared", "radius": 0.5, "omega": 0.1, "tau3": 0.5}, 0),
        ],
        ids=["orders-2-3", "orders-2-3-4", "declared-without-tau4"],
    )
    def test_skew_term_only_for_order_four(self, tmp_path, skews, orders, certificate, evaluated):
        payload = {**_base_config(), "orders": orders}
        if certificate is not None:
            payload["certificate"] = certificate
        report = self._run(tmp_path, "certify", payload)
        assert len(skews) == evaluated
        prediction = report["prediction"]
        assert (prediction["skew_correction"] is None) == (evaluated == 0)
        assert (prediction["skew_value"] is None) == (evaluated == 0)

    @staticmethod
    def _check_orders(prediction, blocks, built):
        """Each order's shift and value change, recovered from ``prediction`` bit for bit."""
        assert [block["report"]["order"] for block in blocks] == [rep.order for rep in built]
        for rep in built:
            shift, value = prediction["newton_shift"], prediction["newton_value_change"]
            if rep.order == "4":
                shift = [n + s for n, s in zip(shift, prediction["skew_correction"])]
                value = value - prediction["skew_value"]
            assert rep.predicted_shift.tolist() == shift
            assert rep.predicted_value_change == value
        for block in blocks:
            assert set(block["report"]) == {"order", "anchor", "bounds"}
            assert "certifying" not in block["report"]["bounds"]

    def test_certify_prediction_is_the_library_prediction(self, tmp_path, monkeypatch):
        built = _recording(monkeypatch, "expansion_for_order")
        report = self._run(tmp_path, "certify", _base_config())
        f = oracle_from_descriptor(report["problem"]).oracle
        xstar = np.array(report["anchor"]["xstar"])
        p = predict(f, xstar, np.array(report["tilt"]))
        p.skew  # computed, as the order-4 report computed it
        assert report["prediction"] == json.loads(json.dumps(p.to_dict()))
        self._check_orders(report["prediction"], report["results"], built)

    def test_ridge_sweep_prediction_is_the_library_prediction(self, tmp_path, monkeypatch):
        built = _recording(monkeypatch, "expansion_for_order")
        payload = _sweep_config([0.0, 0.1], {"mode": "rank1", "seed": 12})
        report = self._run(tmp_path, "ridge-sweep", payload)
        prob = oracle_from_descriptor(report["problem"])
        anchor = solver.newton_minimize(prob.oracle, prob.x0)
        cfg = ExperimentConfig.from_dict(payload, "ridge-sweep")
        ridge = QuadraticOracle(harness._sweep_base_matrix(cfg, prob.oracle.dim))
        for k, entry in enumerate(report["results"]):
            pen = SumOracle(ridge, weights=(entry["lambda"],))
            p = predict(prob.oracle, anchor.xhat, pen, curvature=anchor.curvature)
            p.skew  # computed, as the order-4 report computed it
            assert entry["prediction"] == json.loads(json.dumps(p.to_dict()))
            blocks = [entry["order3"], entry["order4"]]
            self._check_orders(entry["prediction"], blocks, built[2 * k: 2 * k + 2])
