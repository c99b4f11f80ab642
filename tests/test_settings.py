"""Every settings class reads its numbers by the one rule of ``pacsim.settings``:
a real number that is not a bool, stored as a float, and an error that names
the field otherwise. A name is read by its one rule too: a string among a
table's keys."""

import dataclasses
import math
import re
from fractions import Fraction

import pytest
from pacsim import settings
from settings_cases import SETTINGS

# (class, field) for every field of a settings class that holds numbers
NUMBER_FIELDS = [(cls, f.name) for cls in SETTINGS for f in dataclasses.fields(cls) if "float" in f.type]
_IDS = [f"{cls.__name__}.{name}" for cls, name in NUMBER_FIELDS]


def _first(value):
    return _first(value[0]) if isinstance(value, (list, tuple)) else value


def _with_first(value, new):
    """``value`` with its first number, inside any nesting of lists, replaced by ``new``."""
    if isinstance(value, (list, tuple)):
        return [_with_first(value[0], new), *value[1:]]
    return new


@pytest.mark.parametrize("bad", [True, "1", None, 10**400], ids=["true", "string", "none", "int_beyond_float"])
@pytest.mark.parametrize("cls, name", NUMBER_FIELDS, ids=_IDS)
def test_a_number_field_rejects_what_is_no_number(cls, name, bad):
    # YAML's true and "1" would pass float(); dt: true ran 1 s steps and gust v_m: true a 1 m/s gust.
    # An int too large for a float is no number either; it used to escape as an OverflowError.
    valid = cls(**SETTINGS[cls])
    with pytest.raises(ValueError, match=rf"^(experiment: )?(gust |impulse |inertia )?{name}\b"):
        cls(**{**SETTINGS[cls], name: _with_first(getattr(valid, name), bad)})


@pytest.mark.parametrize("cls, name", NUMBER_FIELDS, ids=_IDS)
def test_a_number_field_stores_the_float_it_equals(cls, name):
    value = getattr(cls(**SETTINGS[cls]), name)
    first = _first(value)
    exact = Fraction(first) if math.isfinite(first) else first
    stored = _first(getattr(cls(**{**SETTINGS[cls], name: _with_first(value, exact)}), name))
    assert type(stored) is float and stored == first


@pytest.mark.parametrize("bad", ["PAC", ["pac"], None, 1], ids=["unknown", "list", "none", "int"])
def test_a_name_that_is_no_entry_is_one_message(bad):
    # a list used to reach the table lookup and fail as "unhashable type: 'list'"
    want = f"controller must be one of ['pac', 'pid'], not {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        settings.choice("controller", bad, {"pac": 1, "pid": 2})
