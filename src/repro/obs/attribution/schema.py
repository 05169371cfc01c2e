"""Dependency-free JSON-Schema-subset validator.

The repo cannot grow a ``jsonschema`` dependency, but the CI smoke job
and the tests still need to pin the ``repro why`` / ``repro diff``
JSON document shapes against checked-in schemas (``tests/schemas/``).
This module implements the subset those schemas use:

``type`` (including type lists), ``properties``, ``required``,
``additionalProperties`` (boolean or schema), ``items`` (single
schema), ``enum``, ``const``, ``minimum``/``maximum``,
``minItems``, ``patternProperties`` (match-all semantics).

Usage as a module (the CI job's entry point)::

    python -m repro.obs.attribution.schema SCHEMA.json < payload.json

exits 0 when the payload validates, 1 with the error paths otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Any, Dict, List

#: JSON-Schema type name -> accepted Python types.
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (type(None),),
}


def _check_type(instance: Any, expected: Any, path: str,
                errors: List[str]) -> bool:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        accepted = _TYPES.get(name)
        if accepted is None:
            errors.append(f"{path}: unknown schema type {name!r}")
            return False
        # bool is an int subclass in Python; keep the JSON distinction.
        if isinstance(instance, accepted) and not (
                name in ("integer", "number")
                and isinstance(instance, bool)):
            return True
    errors.append(f"{path}: expected {expected}, "
                  f"got {type(instance).__name__}")
    return False


def _validate(instance: Any, schema: Dict[str, Any], path: str,
              errors: List[str]) -> None:
    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, "
                      f"got {instance!r}")
        return
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")
        return
    if "type" in schema and not _check_type(instance, schema["type"],
                                            path, errors):
        return
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            errors.append(f"{path}: {instance} < minimum "
                          f"{schema['minimum']}")
        if "maximum" in schema and instance > schema["maximum"]:
            errors.append(f"{path}: {instance} > maximum "
                          f"{schema['maximum']}")
    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required property {key!r}")
        patterns = schema.get("patternProperties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in properties:
                _validate(value, properties[key], f"{path}.{key}", errors)
                continue
            matched = False
            for pattern, sub in patterns.items():
                if re.search(pattern, key):
                    matched = True
                    _validate(value, sub, f"{path}.{key}", errors)
            if matched:
                continue
            if extra is False:
                errors.append(f"{path}: unexpected property {key!r}")
            elif isinstance(extra, dict):
                _validate(value, extra, f"{path}.{key}", errors)
    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            errors.append(f"{path}: {len(instance)} items < minItems "
                          f"{schema['minItems']}")
        items = schema.get("items")
        if isinstance(items, dict):
            for i, value in enumerate(instance):
                _validate(value, items, f"{path}[{i}]", errors)


def validate(instance: Any, schema: Dict[str, Any]) -> List[str]:
    """Validate ``instance``; returns the (possibly empty) error list."""
    errors: List[str] = []
    _validate(instance, schema, "$", errors)
    return errors


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.obs.attribution.schema SCHEMA.json "
              "< payload.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        schema = json.load(fh)
    instance = json.load(sys.stdin)
    errors = validate(instance, schema)
    if errors:
        for error in errors:
            print(f"schema: {error}", file=sys.stderr)
        return 1
    print("schema: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    sys.exit(main(sys.argv[1:]))
