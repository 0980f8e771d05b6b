"""Deterministic CSV/JSON writers for run artifacts.

Repeated runs must produce byte-identical files, so everything is explicit:
'\n' line endings, '.' decimal separator, floats at 17 significant digits
(round-trip exact), JSON with sorted keys.  Fields never contain separators,
so rows are plain joins.
"""

from __future__ import annotations

import json
from pathlib import Path


def fmt17(x) -> str:
    return f"{float(x):.17g}"


def _cell(x) -> str:
    if isinstance(x, float):
        return fmt17(x)
    return str(x)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="ascii"
    )
    return path
