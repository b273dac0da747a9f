"""The artifact format: one CSV writer, one JSON writer, one meta line.

Every CSV artifact opens with a `# <meta line>` comment that ties it to
the scenario that produced it; every JSON artifact carries the same
three facts as top-level fields. Floats are written at 17 significant
digits, so they read back bit for bit.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .scenario import Scenario, scenario_hash

__all__ = ["CSV_CHUNK", "meta_line", "write_csv", "jsonable", "write_json"]

# rows formatted per writelines call; bounds the per-chunk Python lists
CSV_CHUNK = 1 << 16


def meta_line(scenario: Scenario) -> str:
    """The text of the comment line that opens every CSV artifact.

    The scenario name is one token here, which Scenario.validate ensures."""
    return (f"scenario={scenario.name} scenario_hash={scenario_hash(scenario)}"
            f" master_seed={scenario.master_seed}")


def _chunk_cells(values, fmt: str) -> tuple[list, str]:
    """One slice of a column as a list, and the format its cells take.
    A None in a list column is an empty cell, so such a slice is
    formatted here and written through %s."""
    if isinstance(values, np.ndarray):
        return values.tolist(), fmt
    values = list(values)
    if None in values:
        return ["" if v is None else fmt % v for v in values], "%s"
    return values, fmt


def write_csv(path: str, meta: str | None, columns) -> None:
    """Write `columns`, an ordered list of (header, format, values), as
    one CSV file, after a `# meta` line when `meta` is given.

    Formats are %d, %.17g and %s; %d and %.17g give the same text as
    str(int(v)) and format(float(v), ".17g"). Rows are formatted
    column-wise, CSV_CHUNK rows at a time."""
    n = len(columns[0][2])
    if any(len(values) != n for _, _, values in columns):
        raise ValueError(f"{path}: columns differ in length")
    with open(path, "w", encoding="utf-8") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write(",".join(header for header, _, _ in columns) + "\n")
        for start in range(0, n, CSV_CHUNK):
            stop = start + CSV_CHUNK
            cells, fmts = zip(*[_chunk_cells(values[start:stop], fmt)
                                for _, fmt, values in columns])
            row_fmt = ",".join(fmts) + "\n"
            fh.writelines([row_fmt % row for row in zip(*cells)])
    print(f"wrote {path}")


def jsonable(obj):
    """Dataclasses, dicts, sequences and numpy values as plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, scenario: Scenario, payload: dict) -> None:
    """Write `payload` under the scenario's name, hash and master seed."""
    body = {"scenario_name": scenario.name,
            "scenario_hash": scenario_hash(scenario),
            "master_seed": scenario.master_seed}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(body), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
