"""Config keys: the JSON name, type, default and bounds of each tunable value.

A dataclass field declared with `keyed` carries its Key in the field's
metadata and takes the key's default. The class checks such a field through
its key (check_keyed), and the config reads a section's keys off the fields
of the class the section fills (keys_of), so each bound is declared once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ValidationError


@dataclass(frozen=True)
class Key:
    """One config key: its JSON name, type, default and bounds.

    A list key holds as many finite numbers as its default. A key with a
    `table` is a section, an object (or a list of objects) whose keys that
    table declares. `attr` names the field the key fills when it differs
    from the name.
    """

    name: str
    kind: type = float          # int, float, str or list
    default: object = None
    low: float | None = None
    high: float | None = None
    strict: bool = False        # whether `low` itself is out of bounds
    choices: tuple[str, ...] = ()
    table: tuple[Key, ...] = ()
    attr: str = ""

    @property
    def field(self) -> str:
        return self.attr or self.name

    def read(self, doc: dict, where: str, default=None):
        """The validated value of this key in `doc`, or its default."""
        if default is None:
            default = self.default
        if self.name not in doc and default is not None:
            return default  # the defaults are valid by construction
        return self.check(doc.get(self.name), f"{where} key {self.name!r}", default)

    def check(self, val, what: str, default=None):
        """`val` validated as this key's value; its errors start with `what`."""
        if self.choices:
            if val not in self.choices:
                raise ConfigError(
                    f"{what} must be one of {'|'.join(self.choices)}, got {val!r}"
                )
        elif self.kind is str:
            # open() raises a bare ValueError on a NUL byte in a path
            if val is not None and (not isinstance(val, str) or "\0" in val):
                raise ConfigError(f"{what} must be a string path without NUL bytes")
        elif self.kind is list:
            if val is None and default is None:
                return None  # absent or null: the built class's default applies
            val = _numbers(val, what, default and len(default))
        else:
            val = _number(val, what, self.kind, self.low, self.high, self.strict)
        return val


# numpy scalars count too: JSON never yields one, but callers building a
# class directly may pass one, and it is stored as the Python number
_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def _number(val, what: str, kind: type = float, low=None, high=None, strict=False):
    """A finite number of `kind` (never a bool) inside the bounds."""
    if isinstance(val, bool) or not isinstance(val, _INTEGERS if kind is int else _NUMBERS):
        raise ConfigError(f"{what} must be {'an integer' if kind is int else 'a number'}")
    if kind is float:
        try:
            val = float(val)
        except OverflowError:
            val = math.inf
        if not math.isfinite(val):
            raise ConfigError(f"{what} must be finite, got {val}")
    else:
        val = int(val)  # random.Random takes no numpy integer as a seed
    if low is not None and (val <= low if strict else val < low):
        raise ConfigError(f"{what} must be {'>' if strict else '>='} {low}, got {val}")
    if high is not None and val > high:
        raise ConfigError(f"{what} must be <= {high}, got {val}")
    return val


def _numbers(val, what: str, size: int | None) -> tuple[float, ...]:
    if not isinstance(val, (list, tuple)) or size not in (None, len(val)):
        raise ConfigError(f"{what} must list {size or 'some'} numbers")
    return tuple(_number(v, what) for v in val)


def keyed(name: str, kind: type = float, default=None, **bounds):
    """A dataclass field declared by its config Key; it defaults to the key's default."""
    return field(default=default, metadata={"key": Key(name, kind, default, **bounds)})


@functools.cache
def keys_of(cls) -> tuple[Key, ...]:
    """The keys of dataclass `cls`'s keyed fields in field order, each naming its field."""
    return tuple(
        replace(f.metadata["key"], attr=f.name) for f in fields(cls) if "key" in f.metadata
    )


def key_of(cls, name: str) -> Key:
    """The key of `cls`'s field `name`."""
    return next(key for key in keys_of(cls) if key.field == name)


def check_keyed(obj) -> None:
    """Check each keyed field of frozen dataclass `obj` through its key and
    store the checked value. A field still holding its key's default object
    is valid by construction."""
    for key in keys_of(type(obj)):
        val = getattr(obj, key.field)
        if val is not key.default:
            try:
                val = key.check(val, f"key {key.name!r}", key.default)
            except ConfigError as exc:
                raise ValidationError(str(exc)) from exc
            object.__setattr__(obj, key.field, val)
