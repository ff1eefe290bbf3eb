from __future__ import annotations

import csv
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
import perturbex.harness as harness
import perturbex.linalg as linalg
import perturbex.solver as solver
from perturbex import (
    LogisticOracle,
    PsdQuadraticOracle,
    oracle_from_descriptor,
    smoothly_penalize,
    solve_and_compare,
    verify_expansion,
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
        assert report["schema"] == "perturbex.report.v3"
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
        assert report["warnings"]

    def test_declared_certificate_without_tau4_skips_order4(self, tmp_path):
        payload = _base_config()
        payload["certificate"] = {
            "mode": "declared", "radius": 0.5, "kappa": 1.0, "omega": 0.1,
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
            "mode": "declared", "radius": 0.5, "kappa": 1.0, "omega": 1e-12,
            "tau3": 1e-12, "tau4": 1e-12,
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert any(r.get("verification", {}).get("violations") for r in report["results"])

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
    """Keep every report the harness builds through ``harness.<name>``."""
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
            alone = verify_expansion(f, xstar, rep.tilt, rep).to_dict()
            assert entry["verification"] == json.loads(json.dumps(alone))

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
        penalized = smoothly_penalize(f, PsdQuadraticOracle(0.2 * np.eye(4)))
        xstar = np.array(report["anchor"]["xstar"])
        entries = _verified_entries(report)
        assert [e["order"] for e in entries] == ["exact", "3", "4"]
        assert len(built) == 3
        for entry, rep in zip(entries, built):
            alone = solve_and_compare(penalized, xstar, [rep])[0].to_dict()
            assert entry["verification"] == json.loads(json.dumps(alone))


def _sweep_config(grid, g2=None):
    return {
        "seed": 8,
        "problem": {"kind": "logistic", "dim": 5, "n": 40, "reg": 0.15, "seed": 9},
        "certificate": {"mode": "estimated", "samples": 60, "seed": 31, "radius": 0.5},
        "sweep": {"lambda_grid": grid, "g2": g2 or {"mode": "identity"}},
    }


class TestKappaOncePerPair:
    """One ``kappa`` per (metric, curvature) pair, with no eigensolve when the
    metric is a power of the curvature."""

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
        assert report["certificate"]["kappa"] == 1.0
        gates = report["results"][0]["report"]["bounds"]["preconditions"]
        dominated = next(g for g in gates if g["name"] == "metric_dominated")
        assert dominated["lhs"] == 1.0 and dominated["satisfied"]

    def test_ridge_sweep_computes_kappa_once_per_lambda(self, tmp_path, kappa_solves):
        cfg = _write(tmp_path, "cfg.json", _sweep_config([0.05, 0.1]))
        assert main(["ridge-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(kappa_solves) == 0

    def test_unrelated_pair_solves_once(self, kappa_solves):
        # D^2 = diag(1, 4, 9) against F = diag(4, 9, 1): the ratio peaks at 9.
        F = linalg.spd_from_dense(np.diag([4.0, 9.0, 1.0]))
        D = linalg.spd_from_dense(np.diag([1.0, 2.0, 3.0]))
        assert linalg.kappa_between(D, F) == pytest.approx(3.0, rel=1e-14)
        assert linalg.kappa_between(D, F) == pytest.approx(3.0, rel=1e-14)
        assert len(kappa_solves) == 1


class TestSweepIsOneFactoredFamily:
    """A sweep evaluates ``grad^2 f(x*)`` once; ``G2 = I`` factors it once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        eigh = np.linalg.eigh
        hessian = LogisticOracle.hessian
        in_solver = solver.newton_minimize.__code__
        seen = {"eigh": 0, "hessian_points": []}

        def counting_eigh(*args, **kwargs):
            seen["eigh"] += 1
            return eigh(*args, **kwargs)

        def counting_hessian(oracle, x):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not in_solver:
                frame = frame.f_back
            if frame is None:  # not a Newton step of the anchor or a verification
                seen["hessian_points"].append(np.array(x))
            return hessian(oracle, x)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(LogisticOracle, "hessian", counting_hessian)
        return seen

    @pytest.mark.parametrize(
        "g2, eighs",
        [
            ({"mode": "identity"}, 1),
            ({"mode": "matrix", "matrix": np.eye(5).tolist()}, 1),
            ({"mode": "rank1", "seed": 12}, 3),
        ],
    )
    def test_factor_and_hessian_counts(self, tmp_path, counts, g2, eighs):
        payload = _sweep_config([0.0, 0.05, 0.1], g2)
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["ridge-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert counts["eigh"] == eighs
        prob = oracle_from_descriptor(payload["problem"])
        xstar = solver.newton_minimize(prob.oracle, prob.x0).xhat
        assert len(counts["hessian_points"]) == 1
        np.testing.assert_array_equal(counts["hessian_points"][0], xstar)

    def test_shifted_family_matches_refactoring(self, tmp_path, monkeypatch):
        """Shifting one factored ``H0`` gives the sweep that factoring each
        ``H0 + lam I`` gives, up to rounding."""
        cfg = _write(tmp_path, "cfg.json", _sweep_config([0.0, 0.1, 0.4]))
        assert main(["ridge-sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(
            linalg.SpdOperator,
            "shifted",
            lambda op, lam: linalg.spd_from_dense(op.matrix + lam * np.eye(op.dim)),
        )
        assert main(["ridge-sweep", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        with open(tmp_path / "a" / "sweep.csv", newline="") as fa:
            rows_a = list(csv.reader(fa))
        with open(tmp_path / "b" / "sweep.csv", newline="") as fb:
            rows_b = list(csv.reader(fb))
        assert rows_a[0] == rows_b[0]
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            for va, vb in zip(ra, rb):
                if va != vb:
                    assert float(va) == pytest.approx(float(vb), rel=1e-6, abs=1e-12)


class TestBenchmarkTracerHooks:
    def test_traced_names_exist(self):
        """``bench/tracer.py`` patches each of these names; all must resolve."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module, name in tracer.TRACED_FUNCTIONS:
            assert callable(getattr(importlib.import_module(f"perturbex.{module}"), name))
        assert isinstance(harness.ExperimentConfig.__dict__["from_file"], classmethod)


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

    def test_certificate_without_tau4_is_an_error(self, tmp_path, capsys):
        """A sweep states orders 3 and 4 for every weight; it does not skip one."""
        payload = {
            "seed": 8,
            "problem": {"kind": "logistic", "dim": 4, "n": 32, "reg": 0.2, "seed": 10},
            "certificate": {"mode": "declared", "radius": 0.5, "omega": 0.1, "tau3": 0.5},
            "sweep": {"lambda_grid": [0.1]},
        }
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["ridge-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tau4" in err


class TestSelftest:
    def test_passes_cleanly(self, tmp_path):
        assert main(["selftest", "--out", str(tmp_path / "st")]) == 0
        log = json.loads((tmp_path / "st" / "selftest.json").read_text())
        assert log["exit_code"] == 0
        assert any("all checks passed" in line for line in log["log"])

    def test_corrupted_constant_is_detected(self, monkeypatch):
        monkeypatch.setattr(constants, "OMEGA_MAX", 0.5)
        code, lines = run_selftest(verbose=False)
        assert code == 2
        assert "FAIL" in lines[0]
        assert "OMEGA_MAX" in lines[0]
