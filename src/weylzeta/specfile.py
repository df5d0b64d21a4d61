"""Line-based quotient specification files.

Format: one ``key = value`` pair per line, ``#`` comments and blank
lines allowed.  Keys:

    root_system = A2 | C2
    kind        = torus | klein
    v1, v2      = x,y            (torus only)
    alpha, beta = x,y            (klein only)
    a, b, m     = integer        (klein only)
    order       = positive integer, series order in u (optional)

Exactly the keys of the declared kind must be present; parse errors
carry the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .quotient import GroupSpec, KleinSpec, TorusSpec

MAX_SPEC_BYTES = 1 << 16  # longer files and non-UTF-8 bytes are refused unparsed

_COMMON_KEYS = {"root_system", "kind", "order"}
_KIND_KEYS = {"torus": {"v1", "v2"}, "klein": {"alpha", "beta", "a", "b", "m"}}


class SpecFileError(ValueError):
    """Parse or consistency error in a quotient spec file."""

    def __init__(self, line: Optional[int], message: str):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


@dataclass(frozen=True)
class ParsedSpec:
    root_system: str
    spec: GroupSpec
    order: Optional[int]


def _parse_pair(raw: str, line: int, key: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise SpecFileError(line, f"{key} must be two comma-separated integers")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise SpecFileError(line, f"{key} must be two comma-separated integers")


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SpecFileError(line, f"{key} must be an integer")


def parse_spec_text(text: str) -> ParsedSpec:
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SpecFileError(lineno, "expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise SpecFileError(lineno, f"duplicate key {key!r}")
        if key not in _COMMON_KEYS and key not in _KIND_KEYS["torus"] | _KIND_KEYS["klein"]:
            raise SpecFileError(lineno, f"unknown key {key!r}")
        values[key] = value
        lines[key] = lineno

    for key in ("root_system", "kind"):
        if key not in values:
            raise SpecFileError(None, f"missing required key {key!r}")
    root_system = values["root_system"]
    if root_system not in ("A2", "C2"):
        raise SpecFileError(lines["root_system"], "root_system must be A2 or C2")
    kind = values["kind"]
    if kind not in _KIND_KEYS:
        raise SpecFileError(lines["kind"], "kind must be torus or klein")

    needed = _KIND_KEYS[kind]
    for key in needed:
        if key not in values:
            raise SpecFileError(None, f"missing required key {key!r} for kind {kind}")
    for key in values:
        if key in _COMMON_KEYS or key in needed:
            continue
        raise SpecFileError(lines[key], f"key {key!r} is not valid for kind {kind}")

    order = None
    if "order" in values:
        order = _parse_int(values["order"], lines["order"], "order")
        if order < 1:
            raise SpecFileError(lines["order"], "order must be positive")

    if kind == "torus":
        spec: GroupSpec = TorusSpec(
            _parse_pair(values["v1"], lines["v1"], "v1"),
            _parse_pair(values["v2"], lines["v2"], "v2"),
        )
    else:
        spec = KleinSpec(
            _parse_pair(values["alpha"], lines["alpha"], "alpha"),
            _parse_pair(values["beta"], lines["beta"], "beta"),
            _parse_int(values["a"], lines["a"], "a"),
            _parse_int(values["b"], lines["b"], "b"),
            _parse_int(values["m"], lines["m"], "m"),
        )
    return ParsedSpec(root_system, spec, order)


def load_spec_file(path: str) -> ParsedSpec:
    with open(path, "rb") as handle:
        data = handle.read(MAX_SPEC_BYTES + 1)
    if len(data) > MAX_SPEC_BYTES:
        raise SpecFileError(None, f"spec file is larger than {MAX_SPEC_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecFileError(None, f"spec file is not UTF-8: bad byte at offset {exc.start}")
    return parse_spec_text(text)


def spec_to_json_dict(root_system: str, spec: GroupSpec) -> dict:
    if isinstance(spec, TorusSpec):
        return {
            "root_system": root_system,
            "kind": "torus",
            "v1": list(spec.v1),
            "v2": list(spec.v2),
        }
    return {
        "root_system": root_system,
        "kind": "klein",
        "alpha": list(spec.alpha),
        "beta": list(spec.beta),
        "a": spec.a,
        "b": spec.b,
        "m": spec.m,
    }
