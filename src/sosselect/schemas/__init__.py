"""Bundled JSON schema documents for the package's file formats, and the one
check of a dataclass against a schema's single-field bounds."""

import json
import math
import numbers
from functools import lru_cache
from importlib import resources

_NAMES = ("scenario_config", "summary", "bound_input")

# a value test per schema type; a bool is never a number, and JSON has no
# non-finite numbers
_TYPE_TESTS = {
    "boolean": lambda v: type(v) is bool,
    "integer": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
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


def check_field_bounds(obj, name: str) -> None:
    """Raise ValueError naming the first field of ``obj`` that misses a
    single-field bound of the shipped schema ``name``."""
    for field, key, bound in _field_bounds(name):
        value = getattr(obj, field)
        if not _BOUND_TESTS[key](value, bound):
            raise ValueError(f"field {field!r} must meet {key} {bound}, got {value!r}")
