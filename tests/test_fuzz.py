"""Every schema-valid config ends in a clean exit, and every config gets
the verdict and error line jsonschema gives it.

Configs are drawn from ``harness.COMMAND_SCHEMAS`` itself: the keys, tags,
enums and bounds come from the schema, so a key added there is fuzzed
without a change here.  Sizes are capped so that a run allocates little,
and every number is 0 or log-uniform over the float range.  A run passes
when its exit code is one the CLI documents, stderr is empty or one
``perturbex: error:`` line, and it raised no warning.

The package validates configs with its own interpreter of the schema;
jsonschema, a test dependency only, is the reference it is held to.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from perturbex import harness
from perturbex.cli import main

# Caps on the keys that size a run, and on every array.
SIZE_CAPS = {"dim": 4, "n": 24, "samples": 16}
MAX_ITEMS = 3
MAX_EXPONENT = 308.0

_SMALL_LOGISTIC = {"kind": "logistic", "dim": 3, "n": 12, "seed": 1}
_DEFINITIONS = harness.CONFIG_SCHEMA["$defs"]
_VALIDATORS = {
    cmd: jsonschema.Draft202012Validator(schema) for cmd, schema in harness.COMMAND_SCHEMAS.items()
}


def _config_error_line(error: jsonschema.ValidationError, command: str) -> str:
    """``<dotted.path>: <message>``; a missing or unread key ends the path."""
    path = [str(part) for part in error.absolute_path]
    message = error.message
    if error.validator == "required":
        path.append(next(k for k in error.validator_value if k not in error.instance))
        message = "required key is missing"
    elif error.validator == "additionalProperties":
        path.append(next(k for k in error.instance if k not in error.schema["properties"]))
        message = f"not read by {command}"
    elif "propertyNames" in error.schema_path:  # a variant's keys, see harness._variant
        path.append(error.instance)
        message = f"not one of the {error.schema['title']}"
    return f"{'.'.join(path) or 'config'}: {message}"


def reference_line(raw, command: str) -> str | None:
    """The reference error line of ``raw`` as a config of ``command``, or ``None``.

    jsonschema's ``best_match`` picks the error, worded as the package
    worded it when it validated with jsonschema.
    """
    error = jsonschema.exceptions.best_match(_VALIDATORS[command].iter_errors(raw))
    return None if error is None else _config_error_line(error, command)


def _resolve(schema: dict) -> dict:
    while "$ref" in schema:
        schema = _DEFINITIONS[schema["$ref"].rpartition("/")[2]]
    return schema


def _number(draw, schema: dict) -> float:
    """0 or log-uniform in ``[1e-300, 1e308]``, with a sign where the schema allows one."""
    floor = schema.get("minimum", schema.get("exclusiveMinimum"))
    if floor is None and draw(st.booleans()):
        return -_number(draw, {"minimum": 0})
    if schema.get("minimum", 0) == 0 and "exclusiveMinimum" not in schema:
        if draw(st.integers(0, 7)) == 0:
            return 0.0
    low = math.log10(floor) if floor else -300.0
    return 10.0 ** draw(st.floats(low, MAX_EXPONENT))


def _value(draw, schema: dict, key: str, ctx: dict):
    schema = _resolve(schema)
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    kind = schema.get("type")
    if kind == "object":
        return _object(draw, schema, ctx)
    if kind == "integer":
        if key in SIZE_CAPS:
            size = draw(st.integers(schema.get("minimum", 0), SIZE_CAPS[key]))
            if key == "dim":
                # The first dimension drawn is the problem's; later ones (a
                # penalty's, a matrix's) mostly match it.
                size = ctx.setdefault("dim", size)
                size = draw(st.sampled_from([size, size, size, draw(st.integers(1, 4))]))
            return size
        return draw(st.integers(-1, 2**32))
    if kind == "number":
        return _number(draw, schema)
    if kind == "array":
        items = schema["items"]
        if _resolve(items).get("type") in ("number", "array") and "minItems" not in schema:
            # A vector or a matrix: mostly of the problem's dimension.
            dim = ctx.get("dim", 1)
            length = draw(st.sampled_from([dim, dim, dim, draw(st.integers(0, MAX_ITEMS + 1))]))
        else:
            length = draw(st.integers(schema.get("minItems", 0), MAX_ITEMS))
        out = [_value(draw, items, key, ctx) for _ in range(length)]
        if schema.get("uniqueItems"):
            assume(len({json.dumps(v) for v in out}) == len(out))
        return out
    raise AssertionError(f"schema of {key!r} has no strategy: {schema}")


def _object(draw, schema: dict, ctx: dict) -> dict:
    """The tags first, then the keys the matching variants (or the object) allow."""
    properties = dict(schema.get("properties", {}))
    required = list(schema.get("required", []))
    variants = [_resolve(v) for v in schema.get("allOf", [])]
    tags = [key for key in required if any(key in v["if"]["properties"] for v in variants)]
    out = {key: _value(draw, properties[key], key, ctx) for key in tags}
    allowed = set(properties)
    for variant in variants:
        if jsonschema.Draft202012Validator(variant["if"]).is_valid(out):
            then = variant["then"]
            properties.update(then.get("properties", {}))
            required += then.get("required", [])
            allowed = set(then["propertyNames"]["enum"])
    for key in sorted(allowed, key=list(properties).index):
        if key not in out and (key in required or draw(st.booleans())):
            out[key] = _value(draw, properties[key], key, ctx)
    return out


@st.composite
def runs(draw):
    """``(command, config, require_gates)`` with a config valid for the command."""
    command = draw(st.sampled_from(harness.COMMANDS))
    config = _object(draw, _resolve(harness.COMMAND_SCHEMAS[command]), {})
    assume(_VALIDATORS[command].is_valid(config))
    return command, config, command != "scaling" and draw(st.booleans())


def _certify(perturbation: dict) -> tuple[str, dict, bool]:
    return "certify", {"seed": 1, "problem": _SMALL_LOGISTIC, "perturbation": perturbation}, False


def _overflow(problem: dict, perturbation: dict, orders: list, key: str, declared=False):
    """A sampled (or ``declared``) ``certify`` run that overflows, and the key
    its error line must name."""
    certificate = {"mode": "estimated", "samples": 16, "seed": 3, "radius": 0.5}
    if declared:
        certificate = {"mode": "declared", "omega": 0.1, "tau3": 0.5, "tau4": 2.0, "radius": 0.5}
    config = {
        "seed": 1, "problem": problem, "perturbation": perturbation, "orders": orders,
        "certificate": certificate,
    }
    return "certify", config, False, key


def _penalized(perturbation: dict, **certificate) -> tuple[str, dict, bool, int]:
    """A sampled log-sum-exp ``certify`` run with a penalty, and its exit code."""
    problem = {"kind": "logsumexp", "dim": 3, "n": 12, "seed": 1, "reg": 0}
    certificate = {"mode": "estimated", "samples": 16, "seed": 3, **certificate}
    config = {
        "seed": 1, "problem": problem, "perturbation": perturbation, "certificate": certificate,
    }
    return "certify", config, False, 0


def _keyed(command: str, config: dict, line: str) -> tuple[str, dict, bool, re.Pattern]:
    """A run that exits 1 with the error ``line``, which leads with a config key."""
    pattern = re.compile(re.escape(f"perturbex: error: {line}\n"))
    return command, {"seed": 1, **config}, False, pattern


_NEWTON = "the Newton step F^-1 A of the tilt is not finite"
_NEGATIVE = "expected a non-negative integer, got"
# A tilt of scale 3.5e280 on a ridge of 5.5e96: F^-1 A overflows.
_FLAT_TILT = {
    "problem": {"kind": "logsumexp", "dim": 1, "n": 20, "reg": 5.5e96, "seed": 1},
    "perturbation": {"kind": "linear", "scale": 3.5e280},
}
_QUADRATIC = {"kind": "quadratic", "dim": 3, "seed": 1}


def _run_cli(command: str, config: dict, require_gates: bool) -> tuple[int, str, list[str]]:
    """Exit code, stderr and warning messages of one CLI run of ``config``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [command, "--config", path, "--out", os.path.join(tmp, "out")]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv + ["--require-gates"] * require_gates)
    return code, stderr.getvalue(), [str(w.message) for w in caught]


_SETTINGS = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@_SETTINGS
@given(runs())
# Values at the top of the float range that once overflowed with a warning.
@example(_certify({"kind": "linear", "scale": 1e308}))
@example(_certify({"kind": "quadratic", "lambda": 1e308}))
@example(
    _certify(
        {"kind": "smooth", "weight": 1e308, "penalty": {"kind": "quadratic", "dim": 3, "seed": 2}}
    )
)
# Overflows that once named only ``config``: in the anchor solve, and in the
# sampled tensors of a nearly flat curvature.
@example(
    _overflow(
        {"kind": "logsumexp", "dim": 2, "n": 3, "seed": 1, "temp": 1.7e308},
        {"kind": "linear", "scale": 1, "seed": 2}, [2, 3, 4], "problem",
    )
)
@example(
    _overflow(
        {"kind": "logistic", "dim": 3, "n": 3, "seed": 1, "reg": 1e-250},
        {"kind": "linear", "scale": 0.01}, [3], "problem or certificate.radius",
    )
)
@example(
    _overflow(
        {"kind": "logsumexp", "dim": 3, "n": 12, "seed": 1, "temp": 1.3e236, "reg": 0},
        {"kind": "linear", "scale": 1}, [2, 3, 4], "problem or certificate.radius",
    )
)
# The same problem with declared constants: the prediction's F^-1 A of
# about 1e237 overflows in verification, and for order 4 in its skew term.
@example(
    _overflow(
        {"kind": "logsumexp", "dim": 3, "n": 12, "seed": 1, "temp": 1.3e236, "reg": 0},
        {"kind": "linear", "scale": 1, "seed": 2}, [2], "problem or perturbation.scale",
        declared=True,
    )
)
@example(
    _overflow(
        {"kind": "logsumexp", "dim": 3, "n": 12, "seed": 1, "temp": 1.3e236, "reg": 0},
        {"kind": "linear", "scale": 1, "seed": 2}, [3], "problem or perturbation.scale",
        declared=True,
    )
)
@example(
    _overflow(
        {"kind": "logsumexp", "dim": 3, "n": 12, "seed": 1, "temp": 1.3e236, "reg": 0},
        {"kind": "linear", "scale": 1, "seed": 2}, [2, 3, 4], "problem or perturbation.scale",
        declared=True,
    )
)
# Penalties on a ball of radius 1e200: values there are 0 * inf, tensors
# finite, and a penalty samples no omega, so no value is formed there.
@example(_penalized({"kind": "quadratic", "lambda": 0.1}, radius=1e200))
@example(
    _penalized(
        {"kind": "smooth", "penalty": {"kind": "quadratic", "dim": 3, "seed": 2}}, radius=1e200
    )
)
# A negative certificate seed, which the schema allows.
@example(_penalized({"kind": "quadratic", "lambda": 0.1}, seed=-1))
# A tilt that moves the solve to x near -2e139, where no step of the Newton
# direction leaves x: the solve stops there, where it once spent 100 iterations.
@example(
    (
        "scaling",
        {
            "seed": 1,
            "problem": {"kind": "logsumexp", "dim": 1, "n": 2, "temp": 1.23e-54, "reg": 0.1,
                        "seed": 0},
            "perturbation": {"kind": "linear", "scale": 1},
            "scaling": {"eps_grid": [2.16e138, 1]},
        },
        False,
        re.compile(r"perturbex: error: null step at iteration [0-3] "),
    )
)
# Errors that once named no key: a Newton step F^-1 A that overflows, a
# negative seed, and a matrix whose rows differ in length.
@example(_keyed("certify", _FLAT_TILT, f"problem or perturbation.scale: {_NEWTON}"))
@example(
    _keyed(
        "scaling", {**_FLAT_TILT, "scaling": {"eps_grid": [1, 0.5]}},
        f"problem or perturbation.scale or scaling.eps_grid.0: {_NEWTON}",
    )
)
@example(
    _keyed(
        "ridge-sweep", {"problem": {**_QUADRATIC, "seed": -1}}, f"problem.seed: {_NEGATIVE} -1"
    )
)
@example(
    _keyed(
        "certify", {"problem": _QUADRATIC, "perturbation": {"kind": "linear", "seed": -1}},
        f"perturbation.seed: {_NEGATIVE} -1",
    )
)
@example(
    _keyed(
        "ridge-sweep", {"problem": _QUADRATIC, "sweep": {"g2": {"mode": "rank1", "seed": -5}}},
        f"sweep.g2.seed: {_NEGATIVE} -5",
    )
)
@example(
    _keyed(
        "ridge-sweep",
        {"seed": -4, "problem": _QUADRATIC, "sweep": {"g2": {"mode": "rank1"}}},
        f"seed (+ 3, the default sweep.g2.seed): {_NEGATIVE} -1",
    )
)
@example(
    _keyed(
        "ridge-sweep",
        {"problem": _QUADRATIC, "sweep": {"g2": {"mode": "matrix", "matrix": [[1, 0, 0], [0]]}}},
        "sweep.g2.matrix: rows of different lengths",
    )
)
@example(
    _keyed(
        "certify",
        {"problem": _QUADRATIC, "perturbation": {"kind": "quadratic", "matrix": [[1], [0, 1]]}},
        "perturbation.matrix: rows of different lengths",
    )
)
def test_every_valid_config_exits_cleanly(run):
    command, config, require_gates, *expected = run
    code, message, caught = _run_cli(command, config, require_gates)
    assert code in (0, 1, 2, 3)
    assert message == "" or (
        message.startswith("perturbex: error:") and message.count("\n") == 1
    ), message
    assert caught == []
    for want in expected:
        if isinstance(want, int):
            assert code == want, message
        elif isinstance(want, re.Pattern):
            assert code == 1 and want.match(message), message
        else:
            assert code == 1 and message.startswith(f"perturbex: error: {want}: overflow"), message


# The well-posed box: log-uniform bounds on every number a config sizes a run
# with.  Seeds, shapes and matrices are valid, penalties positive
# semidefinite.  A run in the box may violate a sampled bound (exit 2) or
# fail a gate under --require-gates (exit 3), but never errs (exit 1).
WELL_POSED = {
    "reg": (1e-2, 10.0), "temp": (0.1, 10.0), "cond": (1.0, 1e3),
    "scale": (1e-3, 1.0), "lambda": (1e-3, 1.0), "weight": (1e-3, 1.0), "eps": (1e-3, 1.0),
    "radius": (0.1, 2.0), "inflation": (1.0, 10.0), "constant": (1e-3, 10.0),
}


@st.composite
def well_posed_runs(draw):
    """``(command, config, require_gates)`` with every number in ``WELL_POSED``."""

    def number(key: str) -> float:
        lo, hi = WELL_POSED[key]
        return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))

    def some(**keys) -> dict:
        """Each key drawn, or left to its default."""
        return {key: value() for key, value in keys.items() if draw(st.booleans())}

    def seed() -> int:
        return draw(st.integers(0, 2**32))

    def count(low: int, high: int) -> int:
        return draw(st.integers(low, high))

    dim = count(1, SIZE_CAPS["dim"])

    def problem() -> dict:
        kind = draw(st.sampled_from(["quadratic", "logistic", "logsumexp"]))
        desc = {"kind": kind, "dim": dim, "seed": seed()}
        if kind == "quadratic":
            return {**desc, **some(cond=lambda: number("cond"))}
        desc.update(some(n=lambda: count(1, SIZE_CAPS["n"]), reg=lambda: number("reg")))
        return {**desc, **some(temp=lambda: number("temp"))} if kind == "logsumexp" else desc

    def diagonal() -> list:
        entries = [number("lambda") for _ in range(dim)]
        return [[entries[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    def tilt() -> dict:
        if draw(st.booleans()):
            return {"kind": "linear", "vector": [number("scale") for _ in range(dim)]}
        return {"kind": "linear", **some(scale=lambda: number("scale"), seed=seed)}

    def certificate() -> dict:
        radius = some(radius=lambda: number("radius"))
        if draw(st.booleans()):
            declared = some(**dict.fromkeys(("omega", "tau3", "tau4"), lambda: number("constant")))
            return {"mode": "declared", **radius, **declared}
        return {
            "mode": "estimated", "samples": count(1, SIZE_CAPS["samples"]),
            "seed": count(-1, 2**32), **radius, **some(inflation=lambda: number("inflation")),
        }

    def eps_grid() -> dict:
        grid = [number("eps") for _ in range(count(2, MAX_ITEMS))]
        assume(len(set(grid)) == len(grid))
        return {"eps_grid": grid}

    def penalty() -> dict:
        kind = draw(st.sampled_from(["linear", "lambda", "matrix", "smooth"]))
        if kind == "linear":
            return tilt()
        if kind == "smooth":
            weight = some(weight=lambda: number("weight"))
            return {"kind": "smooth", "penalty": problem(), **weight}
        if kind == "matrix":
            return {"kind": "quadratic", "matrix": diagonal()}
        return {"kind": "quadratic", **some(**{"lambda": lambda: number("lambda")})}

    def orders() -> list:
        return draw(st.lists(st.sampled_from(["exact", 2, 3, 4]), min_size=1, max_size=3,
                             unique=True))

    def g2() -> dict:
        mode = draw(st.sampled_from(["identity", "rank1", "matrix"]))
        if mode == "matrix":
            return {"mode": mode, "matrix": diagonal()}
        return {"mode": mode, **some(seed=seed)}

    def lambda_grid() -> list:
        return [0.0 if draw(st.booleans()) else number("lambda") for _ in range(count(1, 3))]

    command = draw(st.sampled_from(harness.COMMANDS))
    config = {"seed": seed(), "problem": problem()}
    if command == "scaling":
        return command, {**config, **some(perturbation=tilt, scaling=eps_grid)}, False
    config.update(some(certificate=certificate))
    if command == "certify":
        config.update(some(perturbation=penalty, orders=orders))
    else:
        config["sweep"] = some(lambda_grid=lambda_grid, g2=g2)
    return command, config, draw(st.booleans())


@_SETTINGS
@given(well_posed_runs())
def test_well_posed_configs_exit_without_error(run):
    command, config, require_gates = run
    assert _VALIDATORS[command].is_valid(config)
    code, message, caught = _run_cli(command, config, require_gates)
    assert code in (0, 2, 3), message
    assert message == "" and caught == []


def _schema_keys(schema) -> set[str]:
    """Every property name in the document: the keys an edit may add."""
    keys = set()
    if isinstance(schema, dict):
        keys |= set(schema.get("properties", {}))
        for value in schema.values():
            keys |= _schema_keys(value)
    elif isinstance(schema, list):
        for value in schema:
            keys |= _schema_keys(value)
    return keys


_ADDED_KEYS = sorted(_schema_keys(harness.CONFIG_SCHEMA) | {"unread"})
# Other JSON types, numbers out of every range the schema states, huge
# floats, and the strings NaN and Infinity load as.
_REPLACEMENTS = [
    None, True, False, "text", [], {}, [1, "x"], {"kind": "linear"},
    0, 1, -1, 2, 7, 0.5, -0.5, 2.0, -1e-300, 2**53, -(2**53),
    1e308, -1e308, 1.7976931348623157e308, "NaN", "Infinity", "-Infinity",
]


def _slots(value):
    """``(container, key)`` of every value inside ``value``, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield value, key
        if isinstance(item, (dict, list)):
            yield from _slots(item)


@st.composite
def edited_configs(draw):
    """``(command, config)``: a drawn config with one key dropped, one added,
    or one value (or the whole config) replaced."""
    command = draw(st.sampled_from(harness.COMMANDS))
    config = _object(draw, _resolve(harness.COMMAND_SCHEMAS[command]), {})
    slots = list(_slots(config))
    edit = draw(st.sampled_from(["drop", "add", "replace"]))
    if edit == "drop":
        entries = [(c, k) for c, k in slots if isinstance(c, dict)]
        if entries:
            container, key = draw(st.sampled_from(entries))
            del container[key]
    elif edit == "add":
        objects = [config] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        target = draw(st.sampled_from(objects))
        target[draw(st.sampled_from(_ADDED_KEYS))] = draw(st.sampled_from(_REPLACEMENTS))
    else:
        slot = draw(st.sampled_from([None, *slots]))
        replacement = draw(st.sampled_from(_REPLACEMENTS))
        if slot is None:
            return command, replacement
        container, key = slot
        container[key] = replacement
    return command, config


@settings(
    max_examples=1000,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(edited_configs())
def test_validation_agrees_with_jsonschema(case):
    """The package's verdict is jsonschema's, and so is its line for an invalid config."""
    command, raw = case
    line = harness._config_error(raw, command)
    assert (line is None) == _VALIDATORS[command].is_valid(raw)
    assert line == reference_line(raw, command)


_BASE = {
    "seed": 1, "problem": _SMALL_LOGISTIC,
    "certificate": {"mode": "estimated", "samples": 8, "seed": 2, "radius": 0.5},
}


@pytest.mark.parametrize(
    "raw, line",
    [
        # Two depths: the shallower error.
        (
            {**_BASE, "seed": "one", "problem": {**_SMALL_LOGISTIC, "dim": 0}},
            "seed: 'one' is not of type 'integer'",
        ),
        # Two siblings: the one whose path sorts last.
        (
            {**_BASE, "certificate": {**_BASE["certificate"], "samples": -3, "radius": "wide"}},
            "certificate.samples: -3 is less than the minimum of 1",
        ),
        # A type error and a range error on one key: the first in schema order.
        (
            {**_BASE, "problem": {**_SMALL_LOGISTIC, "dim": 0.5}},
            "problem.dim: 0.5 is not of type 'integer'",
        ),
        # A missing key and an unread one on one object: the unread key, whose
        # error lies in a schema with no type.
        (
            {**_BASE, "problem": {"kind": "quadratic", "dim": 2, "reg": 1}},
            "problem.reg: not one of the keys read when kind is 'quadratic'",
        ),
    ],
    ids=["depths", "siblings", "type-and-range", "missing-and-unread"],
)
def test_the_error_reported_among_several(raw, line):
    """Lines recorded when the package validated with jsonschema."""
    assert len(list(_VALIDATORS["certify"].iter_errors(raw))) == 2
    assert harness._config_error(raw, "certify") == line
    assert reference_line(raw, "certify") == line
