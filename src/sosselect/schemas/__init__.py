"""Bundled JSON schema documents for the package's file formats; by them, the
one reader of JSON input fields and the one single-field bound check."""

import json
import numbers
import sys
from dataclasses import MISSING, fields
from functools import lru_cache
from importlib import resources

_NAMES = ("scenario_config", "summary", "bound_input")

# a value test per schema type; a bool is never a number, and a number is a
# finite double: JSON has no NaN or Infinity, and an integer literal beyond the
# double range would overflow where it is used
_TYPE_TESTS = {
    "boolean": lambda v: type(v) is bool,
    "integer": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    ),
}

# a value test per schema keyword that bounds one field on its own
_BOUND_TESTS = {
    "type": lambda v, b: _TYPE_TESTS[b](v),
    "enum": lambda v, b: v in b,
    "minimum": lambda v, b: v >= b,
    "exclusiveMinimum": lambda v, b: v > b,
    "exclusiveMaximum": lambda v, b: v < b,
    "not": lambda v, b: v != b["const"],
}


def load_schema(name: str) -> dict:
    """Return the shipped schema document for ``name``.

    Known names: scenario_config, summary, bound_input.
    """
    if name not in _NAMES:
        raise ValueError(f"unknown schema {name!r}; expected one of {_NAMES}")
    ref = resources.files(__name__).joinpath(f"{name}.schema.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _field_bounds(name: str) -> tuple:
    """``(field, keyword, bound)`` for every single-field bound of schema
    ``name``, in schema order, so a field's type before its range."""
    return tuple(
        (field, key, bound)
        for field, rule in load_schema(name)["properties"].items()
        for key, bound in rule.items()
    )


def json_value(field: str, kind: "str | None", value):
    """``value`` as schema type ``kind`` (None passes it through), an integral
    number in an ``integer`` field read as an int; raises ValueError naming
    ``field`` if it fails ``kind``'s test."""
    if kind == "integer" and type(value) is float and value.is_integer():
        value = int(value)
    if kind is not None and not _TYPE_TESTS[kind](value):
        raise ValueError(f"field {field!r} must meet type {kind}, got {value!r}")
    return value


def read_json_fields(cls, blob: dict, name: str) -> dict:
    """The fields of dataclass ``cls`` in the JSON object ``blob``, each read by
    :func:`json_value` as its type in schema ``name``. An unknown key, or a
    missing field that has no default, raises ValueError naming it."""
    known = {f.name: f for f in fields(cls)}
    extra = sorted(set(blob) - set(known))
    if extra:
        raise ValueError(f"unknown fields: {extra}")
    missing = [k for k, f in known.items() if k not in blob and f.default is MISSING]
    if missing:
        raise ValueError(f"missing fields: {missing}")
    kinds = {field: bound for field, key, bound in _field_bounds(name) if key == "type"}
    return {k: json_value(k, kinds.get(k), v) for k, v in blob.items()}


def check_field_bounds(obj, name: str) -> None:
    """Raise ValueError naming the first field of ``obj`` that misses a
    single-field bound of the shipped schema ``name``."""
    for field, key, bound in _field_bounds(name):
        value = getattr(obj, field)
        if not _BOUND_TESTS[key](value, bound):
            raise ValueError(f"field {field!r} must meet {key} {bound}, got {value!r}")
