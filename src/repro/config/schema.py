"""Generic dataclass-tree (de)serialization with dotted-path errors.

The platform configuration is a tree of (mostly frozen) dataclasses.
This module supplies the machinery that makes the tree usable as a
*configuration language*:

* :func:`encode` -- recursive dataclass -> plain dict/list/scalar
  conversion, suitable for JSON;
* :func:`decode` -- the strict inverse: unknown keys and type mismatches
  raise :class:`ConfigError` carrying the offending dotted path, and
  every ``__post_init__`` range check is re-raised with its location;
* :func:`override` -- rebuild a frozen tree with one dotted-path field
  replaced (``"eci.link.lanes_per_link" -> 4``), revalidating every
  dataclass along the way;
* :func:`get_path` / :func:`diff` -- dotted-path reads and recursive
  leaf-by-leaf comparison (the substrate for provenance reporting).

Nothing here knows about Enzian: the functions operate on any dataclass
tree whose leaves are ints, floats, bools, strings, or tuples of those.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Mapping, Tuple, get_args, get_type_hints


class ConfigError(ValueError):
    """A configuration problem, located by its dotted path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


_HINTS_CACHE: Dict[type, Dict[str, Any]] = {}


def _hints(cls: type) -> Dict[str, Any]:
    """Resolved type annotations for a dataclass (cached)."""
    if cls not in _HINTS_CACHE:
        _HINTS_CACHE[cls] = get_type_hints(cls)
    return _HINTS_CACHE[cls]


# -- encode ----------------------------------------------------------------

def encode(value: Any) -> Any:
    """Dataclass tree -> plain dicts/lists/scalars (JSON-ready)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return value


# -- decode ----------------------------------------------------------------

def decode(cls: type, data: Any, path: str = "") -> Any:
    """Strictly rebuild a dataclass of type ``cls`` from plain data.

    * unknown keys raise with the key's dotted path;
    * scalars are type-checked against the field annotation (ints are
      accepted for float fields; bools are never silently coerced);
    * any ``ValueError`` from a constructor (range checks in
      ``__post_init__``) is re-raised as :class:`ConfigError` at the
      dataclass's path.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            path, f"expected a mapping for {cls.__name__}, got {type(data).__name__}"
        )
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    for key in data:
        if key not in field_map:
            raise ConfigError(_join(path, str(key)), "unknown key")
    hints = _hints(cls)
    kwargs = {}
    for name, value in data.items():
        kwargs[name] = _decode_value(hints[name], value, _join(path, name))
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _decode_value(hint: Any, value: Any, path: str) -> Any:
    # A mismatch names the value's type, never its repr: past the int
    # digit limit, repr() itself raises.
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, path)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {type(value).__name__}")
        try:
            number = float(value)
        except OverflowError as exc:
            raise ConfigError(path, "expected a finite number, got an integer too large") from exc
        if not math.isfinite(number):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return number
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
        try:
            str(value)
        except ValueError as exc:
            raise ConfigError(path, "expected an integer, got one too large to print") from exc
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(path, f"expected a boolean, got {type(value).__name__}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {type(value).__name__}")
        return value
    if hint is tuple or getattr(hint, "__origin__", None) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a sequence, got {type(value).__name__}")
        args = get_args(hint)
        # Homogeneous tuples of nested dataclasses (Tuple[X, ...]) decode
        # element-by-element; an already-constructed element passes through.
        if len(args) == 2 and args[1] is Ellipsis and dataclasses.is_dataclass(args[0]):
            element_cls = args[0]
            return tuple(
                item
                if isinstance(item, element_cls)
                else decode(element_cls, item, f"{path}[{i}]")
                for i, item in enumerate(value)
            )
        return tuple(value)
    return value


# -- dotted-path access ----------------------------------------------------

def get_path(obj: Any, path: str) -> Any:
    """Read a dotted-path field (``get_path(cfg, "eci.link.lanes_per_link")``)."""
    current = obj
    walked = ""
    for part in path.split("."):
        walked = _join(walked, part)
        if not dataclasses.is_dataclass(current):
            raise ConfigError(walked, "path descends into a non-dataclass leaf")
        if part not in {f.name for f in dataclasses.fields(current)}:
            raise ConfigError(walked, "unknown key")
        current = getattr(current, part)
    return current


def override(obj: Any, path: str, value: Any) -> Any:
    """Rebuild ``obj`` with the dotted-path field set to ``value``.

    Every dataclass on the path is reconstructed via
    :func:`dataclasses.replace`, so all ``__post_init__`` validation
    re-runs; a failing range check surfaces as :class:`ConfigError` at
    the overridden path.
    """
    return _override(obj, path, value, full_path=path, walked="")


def _override(obj: Any, rest: str, value: Any, full_path: str, walked: str) -> Any:
    head, _, tail = rest.partition(".")
    walked = _join(walked, head)
    if not dataclasses.is_dataclass(obj):
        raise ConfigError(walked, "path descends into a non-dataclass leaf")
    field_map = {f.name: f for f in dataclasses.fields(obj)}
    if head not in field_map:
        raise ConfigError(walked, "unknown key")
    if tail:
        new_value = _override(getattr(obj, head), tail, value, full_path, walked)
    else:
        new_value = _decode_value(_hints(type(obj))[head], value, full_path)
    try:
        return dataclasses.replace(obj, **{head: new_value})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(full_path, str(exc)) from exc


def apply_overrides(obj: Any, overrides: Mapping[str, Any]) -> Any:
    """Apply a mapping of dotted-path overrides, in insertion order."""
    for path, value in overrides.items():
        obj = override(obj, path, value)
    return obj


# -- diff ------------------------------------------------------------------

def diff(base: Any, other: Any, path: str = "") -> Dict[str, Tuple[Any, Any]]:
    """Leaf-by-leaf comparison of two same-shaped dataclass trees.

    Returns ``{dotted_path: (base_value, other_value)}`` for every leaf
    that differs.
    """
    if type(base) is not type(other):
        raise ConfigError(
            path or "<root>",
            f"cannot diff {type(base).__name__} against {type(other).__name__}",
        )
    out: Dict[str, Tuple[Any, Any]] = {}
    for f in dataclasses.fields(base):
        child_path = _join(path, f.name)
        a, b = getattr(base, f.name), getattr(other, f.name)
        if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
            out.update(diff(a, b, child_path))
        elif a != b:
            out[child_path] = (a, b)
    return out
