"""Every schema-valid config ends in a clean exit.

Configs are drawn from ``harness.COMMAND_SCHEMAS`` itself: the keys, tags,
enums and bounds come from the schema, so a key added there is fuzzed
without a change here.  Sizes are capped so that a run allocates little,
and every number is 0 or log-uniform over the float range.  A run passes
when its exit code is one the CLI documents, stderr is empty or one
``perturbex: error:`` line, and it raised no warning.
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
    assume(jsonschema.Draft202012Validator(harness.COMMAND_SCHEMAS[command]).is_valid(config))
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


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
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
def test_every_valid_config_exits_cleanly(run):
    command, config, require_gates, *expected = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [command, "--config", path, "--out", os.path.join(tmp, "out")]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv + ["--require-gates"] * require_gates)
    assert code in (0, 1, 2, 3)
    message = stderr.getvalue()
    assert message == "" or (
        message.startswith("perturbex: error:") and message.count("\n") == 1
    ), message
    assert [str(w.message) for w in caught] == []
    for want in expected:
        if isinstance(want, int):
            assert code == want, message
        elif isinstance(want, re.Pattern):
            assert code == 1 and want.match(message), message
        else:
            assert code == 1 and message.startswith(f"perturbex: error: {want}: overflow"), message
