"""Flat key = value config files: quoted strings, ints, floats, booleans.

Comments start with # (full line or after the value). No sections, no
nesting; every consumer maps keys onto dataclass fields itself.
"""

from __future__ import annotations

import os


def parse_kv_text(text: str) -> dict:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not key or not rhs:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(rhs, lineno)
    return values


def _strip_comment(line: str) -> str:
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _parse_value(rhs: str, lineno: int):
    if rhs.startswith('"'):
        if len(rhs) < 2 or not rhs.endswith('"'):
            raise ValueError(f"line {lineno}: unterminated string {rhs!r}")
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
        raise ValueError(f"line {lineno}: cannot parse value {rhs!r}") from None


def load_kv(path) -> dict:
    """parse_kv_text on a file, with the file's name before each "line N"."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_kv_text(text)
    except ValueError as err:
        raise ValueError(f"{os.path.basename(path)} {err}") from None


def format_kv(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            lines.append(f"{key} = {'true' if value else 'false'}")
        elif isinstance(value, str):
            lines.append(f'{key} = "{value}"')
        elif isinstance(value, float):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def save_kv(values: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_kv(values))
