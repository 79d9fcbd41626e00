"""Flat key = value config files, read onto and written from dataclasses.

Values are quoted strings, ints, floats and true/false. Comments start
with # (full line or after the value). No sections, no nesting. This is
the one place where a config file's keys become config fields: each key
names a field of exactly one of the dataclasses asked for, its value has
the type of that field's default (an int is accepted for a float field
and converted), and it passes the dataclass's own range checks. Every
rejection names the file and the line.
"""

from __future__ import annotations

import os
from dataclasses import fields

_KINDS = {str: "a quoted string", bool: "true or false", int: "an integer", float: "a number"}


def load_config(path, *classes) -> tuple:
    """One instance of each dataclass in classes, read from a config file.

    Fields the file does not name keep their defaults, so each dataclass's
    defaults must be valid.
    """
    owner = {f.name: (cls, type(f.default)) for cls in classes for f in fields(cls)}
    if len(owner) < sum(len(fields(cls)) for cls in classes):
        raise TypeError("config classes share a field name")
    values: dict[type, dict] = {cls: {} for cls in classes}
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            _read_line(raw, owner, values)
        except ValueError as err:
            raise ValueError(f"{os.path.basename(path)} line {lineno}: {err}") from None
    return tuple(cls(**values[cls]) for cls in classes)


def _read_line(raw: str, owner: dict, values: dict) -> None:
    line = _strip_comment(raw).strip()
    if not line:
        return
    key, eq, rhs = (part.strip() for part in line.partition("="))
    if not (key and eq and rhs):
        raise ValueError(f"expected key = value, got {raw!r}")
    if key not in owner:
        raise ValueError(f"unknown config key {key!r}")
    cls, kind = owner[key]
    if key in values[cls]:
        raise ValueError(f"duplicate key {key!r}")
    value = _parse_value(rhs)
    if kind is float and type(value) is int:
        value = float(rhs)
    if type(value) is not kind:
        raise ValueError(f"{key} must be {_KINDS[kind]}, got {rhs}")
    cls(**{key: value})  # the dataclass's range checks, against valid defaults
    values[cls][key] = value


def _strip_comment(line: str) -> str:
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _parse_value(rhs: str):
    if rhs.startswith('"'):
        if len(rhs) < 2 or not rhs.endswith('"'):
            raise ValueError(f"unterminated string {rhs!r}")
        return rhs[1:-1]
    if rhs == "true":
        return True
    if rhs == "false":
        return False
    try:
        return int(rhs)
    except ValueError:
        pass
    try:
        return float(rhs)
    except ValueError:
        raise ValueError(f"cannot parse value {rhs!r}") from None


def save_config(config, path) -> None:
    """Write every field of a config dataclass, in field order."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            lines.append(f"{f.name} = {'true' if value else 'false'}")
        elif isinstance(value, str):
            lines.append(f'{f.name} = "{value}"')
        elif isinstance(value, float):
            lines.append(f"{f.name} = {value!r}")
        else:
            lines.append(f"{f.name} = {value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
