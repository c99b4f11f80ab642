"""How every setting is read. A number is a real number that is not a bool, finite unless it is a
limit (which may be inf), stored as a float; a section is a mapping whose unknown and missing keys
one message names; a name is a string among a table's keys. Settings classes read numbers here."""

from collections.abc import Mapping
from dataclasses import MISSING, fields
from math import isfinite, isinf
from numbers import Real

_KIND = ("finite and a real number", "a real number or inf")  # by limit


def is_number(value, limit: bool = False) -> bool:
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and (isfinite(value) or limit and isinf(value))
    except OverflowError:  # an int beyond the float range
        return False


def number(name: str, value, limit: bool = False) -> float:
    if not is_number(value, limit):
        raise ValueError(f"{name} must be {_KIND[limit]}, not {value!r}")
    return float(value)


def set_numbers(obj, names, label: str = "", limit: bool = False) -> tuple[float, ...]:
    """Store each field ``names`` of the frozen ``obj`` as a float, once it is a number; return them."""
    for name in names:
        object.__setattr__(obj, name, number(label + name, getattr(obj, name), limit))
    return tuple(getattr(obj, name) for name in names)


def number_list(name: str, value, count: int | None = None, limit: bool = False) -> tuple[float, ...]:
    """``value``, a list or tuple of ``count`` numbers (any count if None), as a tuple of floats."""
    if not (isinstance(value, (list, tuple)) and count in (None, len(value)) and all(is_number(v, limit) for v in value)):
        size = count or "any number of"
        raise ValueError(f"{name} must be a list of {size} values, each {_KIND[limit]}, not {value!r}")
    return tuple(map(float, value))


def section(name: str, raw, known, required=()) -> dict:
    """``raw`` as a dict, once it is a mapping whose keys all lie in ``known`` and include ``required``."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{name} must be a mapping, not {raw!r}")
    bad = {"unknown": sorted(set(raw) - set(known), key=str), "missing": [k for k in required if k not in raw]}
    if any(bad.values()):
        raise ValueError("; ".join(f"{kind} {name} keys: {keys}" for kind, keys in bad.items() if keys))
    return dict(raw)


def read(name: str, raw, cls):
    """Settings class ``cls`` built from section ``name``, which must give each field without a default."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    return cls(**section(name, raw, cls.__dataclass_fields__, required))


def choice(name: str, value, table: Mapping):
    """``table[value]``, once ``value`` is a string that names an entry of ``table``."""
    if not (isinstance(value, str) and value in table):
        raise ValueError(f"{name} must be one of {list(table)}, not {value!r}")
    return table[value]
