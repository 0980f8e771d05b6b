"""The config walker against jsonschema, its oracle.

`config._validate` enforces `config.schema.json` by itself, so that a run
needs no `jsonschema`.  Here `jsonschema.Draft202012Validator`, over the
same schema file, must give the same verdict and the same first-error path
(errors sorted by path, path elements compared as strings) on valid configs
and on mutations of them: type swaps, deleted required keys, unknown keys,
out-of-range numbers, and empty or duplicated arrays.
"""

from __future__ import annotations

import copy
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrlab import config
from lrlab.config import ConfigError

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = config.load_schema()
ORACLE = jsonschema.Draft202012Validator(SCHEMA)

numbers = st.floats(-10, 10, allow_nan=False) | st.integers(-5, 300)
pauli = st.sampled_from(["X", "Y", "Z"])
METHODS = SCHEMA["properties"]["methods"]["items"]["enum"]


def _optional(**fields):
    """A fixed dictionary in which every field may be left out."""
    return st.fixed_dictionaries({}, optional=fields)


valid_configs = st.fixed_dictionaries(
    {
        "model": st.fixed_dictionaries(
            {
                "name": st.sampled_from(["tfim", "commuting_ising", "dicke_chain"]),
                "length": st.integers(1, 20),
            },
            optional={
                "j": numbers,
                "g": numbers,
                "h": numbers,
                "truncation": st.integers(2, 8),
            },
        ),
    },
    optional={
        "observables": _optional(
            op_site=st.integers(0, 20),
            op_pauli=pauli,
            oq_sites=st.lists(st.integers(0, 20), min_size=1, max_size=12, unique=True),
            oq_pauli=pauli,
        ),
        "time_grid": _optional(
            start=st.floats(0, 5) | st.integers(0, 5),
            stop=st.floats(0.1, 10) | st.integers(1, 10),
            points=st.integers(2, 100),
        ),
        "lambda": st.floats(0.01, 5),
        "methods": st.lists(
            st.sampled_from(METHODS), min_size=1, max_size=4, unique=True
        ),
        "chain_order": st.integers(0, 200),
        "series_tol": st.floats(1e-12, 1e-3),
        "slack": st.floats(0, 1e-3),
        "threshold": st.floats(1e-6, 1),
        "projected": st.booleans(),
        "occupation_cap": st.integers(0, 5),
    },
)

# Values that break one keyword or another: bools against numbers, 1.0
# against integers, strings against everything else, and numbers at and
# beyond each bound.
SWAPS = [
    True, False, None, 0, 1, 1.0, 2.5, -1, -0.5, 0.0, 200, 201, 1e9,
    "ten", "Z", "closed_form", "tfim", [], [1, 1], [3, True], [1, 1.0], {}, {"a": 1},
]


def _containers(value, path=()):
    """(path, container) for every object and array in `value`."""
    if isinstance(value, (dict, list)):
        yield path, value
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _containers(item, path + (key,))


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(draw(valid_configs))
    for _ in range(draw(st.integers(1, 3))):
        _, target = draw(st.sampled_from(list(_containers(raw))))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        kind = draw(st.sampled_from(["swap", "delete", "add", "empty", "duplicate"]))
        if isinstance(target, dict) and kind == "add":
            target[draw(st.sampled_from(["bogus", "lam", "J", "oq_site"]))] = 1
        elif isinstance(target, list) and kind in ("add", "duplicate"):
            extra = target[:1] if kind == "duplicate" else [draw(st.sampled_from(SWAPS))]
            target.extend(copy.deepcopy(extra))
        elif kind == "empty":
            target.clear()
        elif keys:
            key = draw(st.sampled_from(keys))
            if kind == "delete":
                del target[key]
            else:
                target[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    return raw


def _oracle_path(raw):
    errors = sorted(
        ORACLE.iter_errors(raw), key=lambda e: list(map(str, e.absolute_path))
    )
    if not errors:
        return None
    return "/".join(map(str, errors[0].absolute_path)) or "<root>"


def _walker_path(raw):
    try:
        config._validate(raw, SCHEMA)
    except ConfigError as e:
        return re.fullmatch(r"config invalid at '(.*?)': .+", str(e)).group(1)
    return None


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(valid_configs | mutated_configs())
def test_walker_matches_jsonschema(raw):
    assert _walker_path(raw) == _oracle_path(raw)


@pytest.mark.parametrize(
    "raw,path",
    [
        # A bool is not a number, and a bound ignores what is not a number.
        ({"model": {"name": "tfim", "length": True}}, "model/length"),
        ({"model": {"name": "tfim", "length": "ten"}}, "model/length"),
        ({"model": {"name": "tfim", "length": 4}, "slack": False}, "slack"),
        # 1.0 is an integer; 1 and True are distinct items.
        ({"model": {"name": "tfim", "length": 4.0}}, None),
        ({"model": {"name": "tfim", "length": 4},
          "observables": {"oq_sites": [1, True]}}, "observables/oq_sites/1"),
        ({"model": {"name": "tfim", "length": 4},
          "observables": {"oq_sites": [1, 1.0]}}, "observables/oq_sites"),
        # Path elements compare as strings.
        ({"model": {"name": "tfim", "length": 4},
          "observables": {"oq_sites": [*range(10), -1, 3, -2]}},
         "observables/oq_sites"),
        ({"model": {"name": "tfim", "length": 4},
          "observables": {"oq_sites": [0, 1, -5, *range(3, 10), -6]}},
         "observables/oq_sites/10"),
        # An unknown key is reported at its object, which sorts first.
        ({"model": {"name": "tfim", "length": -1}, "bogus": 1}, "<root>"),
        ({"model": {"name": "tfim"}}, "model"),
        # Objects compare by their members under the same equality.
        ({"model": {"name": "tfim", "length": 4},
          "methods": [{"a": 1}, {"a": 1}]}, "methods"),
        ({"model": {"name": "tfim", "length": 4},
          "methods": [{"a": [1, {"b": 2}]}, {"a": [1.0, {"b": 2}]}]}, "methods"),
        ({"model": {"name": "tfim", "length": 4},
          "methods": [{"a": 1}, {"a": True}]}, "methods/0"),
    ],
)
def test_walker_edge_cases(raw, path):
    assert _oracle_path(raw) == path
    assert _walker_path(raw) == path


def test_walker_messages_name_the_offence():
    cases = [
        ({"model": {"name": "tfim", "length": 4}, "bogus": 1}, "'bogus' was unexpected"),
        ({"model": {"name": "ising", "length": 4}}, "'ising' is not one of"),
        ({"model": {"name": "tfim", "length": 0}}, "0 is less than the minimum of 1"),
        ({"model": {"length": 4}}, "'name' is a required property"),
        ({"model": {"name": "tfim", "length": 4}, "methods": []}, "[] should be"),
    ]
    for raw, text in cases:
        with pytest.raises(ConfigError, match=re.escape(text)):
            config._validate(raw, SCHEMA)


@pytest.mark.parametrize(
    "where,keyword",
    [
        ((), {"minProperties": 1}),
        (("properties", "model", "properties", "name"), {"pattern": "^t"}),
        (("properties", "methods", "items"), {"maxLength": 20}),
        (("properties", "time_grid"), {"additionalProperties": True}),
    ],
)
def test_walker_raises_on_a_keyword_it_does_not_implement(where, keyword):
    schema = copy.deepcopy(SCHEMA)
    node = schema
    for key in where:
        node = node[key]
    node.update(keyword)
    # Raised even for a config that never reaches the keyword.
    with pytest.raises(NotImplementedError, match=next(iter(keyword))):
        config._validate({"model": {"name": "tfim", "length": 4}}, schema)
