"""Run configuration: JSON files validated against the shipped schema.

`config.schema.json` is the one statement of what a file may contain; the
defaults live in the dataclasses, not the schema.  `_validate` walks that
schema itself.  It enforces the JSON Schema 2020-12 keywords the schema uses
(a bool is not a number, 1.0 is an integer, and a numeric bound ignores a
value that is not a number) and raises on any other keyword, so a keyword
added to the schema later cannot be silently ignored.  Of all the errors it
reports the first by path, naming the offending key or value; the tests hold
its verdict and path to `jsonschema`'s.  `invalid` writes every error that
has a location, the CLI's included, as `config invalid at '<path>': ...`
with a slash path such as `observables/oq_sites/1`.  `_as_int` then makes an
int of every value the schema types "integer", found by walking the same
schema, so 6.0 runs as 6.

Beyond the schema, `parse_config` rejects a non-finite number (`NaN`,
`Infinity`, or a literal such as `1e400` or a 400-digit integer that
overflows to it), a key repeated within one object (`json.loads` would keep
the last value), a model key the named model does not take, and a time grid
whose stop precedes its start.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path


class ConfigError(Exception):
    pass


def invalid(path, message: str) -> ConfigError:
    """The error for `message` at `path`, a sequence of keys and indices."""
    where = "/".join(map(str, path)) or "<root>"
    return ConfigError(f"config invalid at '{where}': {message}")


def load_schema() -> dict:
    text = resources.files("lrlab").joinpath("config.schema.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class ModelConfig:
    name: str
    length: int
    j: float = 1.0
    g: float = 1.0
    h: float = 1.0
    truncation: int = 4


# The ModelConfig fields each model's builder takes besides its length.
MODEL_PARAMS = {
    "tfim": ("j", "g"),
    "commuting_ising": ("j",),
    "dicke_chain": ("h", "truncation"),
}


@dataclass(frozen=True)
class ObservableConfig:
    op_site: int = 0
    op_pauli: str = "Z"
    oq_sites: tuple = ()
    oq_pauli: str = "Z"


@dataclass(frozen=True)
class TimeGridConfig:
    start: float = 0.0
    stop: float = 3.0
    points: int = 61

    def times(self) -> tuple:
        step = (self.stop - self.start) / (self.points - 1)
        return tuple(self.start + k * step for k in range(self.points))


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    observables: ObservableConfig = field(default_factory=ObservableConfig)
    time_grid: TimeGridConfig = field(default_factory=TimeGridConfig)
    lam: float | None = None
    methods: tuple = ("closed_form", "series_exact_cn")
    chain_order: int = 12
    series_tol: float = 1e-9
    slack: float = 1e-9
    threshold: float = 1e-3
    projected: bool = False
    occupation_cap: int | None = None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# keyword: (broken(value, bound), message), checked on numbers only
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}

_KEYWORDS = {"$schema", "title", "type", "enum", "required", "properties",
             "additionalProperties", "items", "minItems", "uniqueItems", *_BOUNDS}


def _check_schema(schema: dict) -> None:
    """Raise on a keyword of `schema` that `_errors` does not implement."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if schema.get("additionalProperties", False) is not False:
        unknown.append("additionalProperties")
    if unknown:
        raise NotImplementedError(f"config schema keywords {unknown}")
    for sub in schema.get("properties", {}).values():
        _check_schema(sub)
    if "items" in schema:
        _check_schema(schema["items"])


def _key(value):
    """A hashable stand-in for `value` under JSON equality, where 1 equals
    1.0 but a bool equals only a bool."""
    if isinstance(value, list):
        return "array", tuple(map(_key, value))
    if isinstance(value, dict):
        return "object", frozenset((k, _key(v)) for k, v in value.items())
    return isinstance(value, bool), value


def _errors(schema: dict, value, path: tuple):
    """(path, message) for each way `value` breaks `schema`, keyword by
    keyword in the schema's order.  Each keyword checks only the values of
    its own type, so a string length reports its type and nothing else."""
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if _key(value) not in map(_key, arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS:
            broken, text = _BOUNDS[keyword]
            if _is_number(value) and broken(value, arg):
                yield path, f"{value!r} {text} {arg!r}"
        elif isinstance(value, dict):
            if keyword == "required":
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif keyword == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _errors(sub, value[name], path + (name,))
            elif keyword == "additionalProperties":
                extra = sorted(set(value) - set(schema.get("properties", {})))
                if extra:
                    names = ", ".join(map(repr, extra))
                    verb = "was" if len(extra) == 1 else "were"
                    yield path, (
                        f"Additional properties are not allowed ({names} {verb} "
                        "unexpected)"
                    )
        elif isinstance(value, list):
            if keyword == "items":
                for i, item in enumerate(value):
                    yield from _errors(arg, item, path + (i,))
            elif keyword == "minItems" and len(value) < arg:
                short = "should be non-empty" if arg == 1 else "is too short"
                yield path, f"{value!r} {short}"
            elif keyword == "uniqueItems" and len(set(map(_key, value))) < len(value):
                yield path, f"{value!r} has non-unique elements"


def _validate(raw: dict, schema: dict) -> None:
    """Raise ConfigError with the first error by path, path elements
    compared as strings (so 'oq_sites/10' precedes 'oq_sites/2')."""
    _check_schema(schema)
    error = min(
        _errors(schema, raw, ()), key=lambda e: list(map(str, e[0])), default=None
    )
    if error is not None:
        raise invalid(*error)


def _as_int(schema: dict, value):
    """`value` with each value that `schema` types "integer" made an int.
    A validated value is integer-valued, so nothing is rounded."""
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _as_int(props.get(k, {}), v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_int(schema.get("items", {}), v) for v in value]
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config invalid: {text} is not a finite number")
    return value


def _finite_int(text: str) -> int:
    """An integer literal, rejected like a float literal when it is beyond
    the float range: as lambda, a coupling or a time it would overflow."""
    _finite_float(text)
    return int(text)


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config invalid: key {key!r} is repeated")
        out[key] = value
    return out


def _fields(obj: dict) -> dict:
    """Dataclass keyword arguments from validated JSON keys: `lambda` is
    `lam`, and lists become tuples."""
    return {
        ("lam" if key == "lambda" else key): tuple(v) if isinstance(v, list) else v
        for key, v in obj.items()
    }


_SECTIONS = {
    "model": ModelConfig,
    "observables": ObservableConfig,
    "time_grid": TimeGridConfig,
}


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(
            path.read_text(),
            parse_float=_finite_float,
            parse_int=_finite_int,
            parse_constant=_finite_float,
            object_pairs_hook=_unique_keys,
        )
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    schema = load_schema()
    _validate(raw, schema)
    raw = _as_int(schema, raw)
    model = raw["model"]
    for key in sorted(model):
        if key not in ("name", "length", *MODEL_PARAMS[model["name"]]):
            raise invalid(
                ("model", key), f"model {model['name']!r} takes no {key!r}"
            )

    kwargs = _fields(raw)
    for key, section in _SECTIONS.items():
        if key in kwargs:
            kwargs[key] = section(**_fields(kwargs[key]))
    cfg = RunConfig(**kwargs)
    if cfg.time_grid.stop < cfg.time_grid.start:
        raise invalid(("time_grid",), "stop precedes start")
    return cfg
