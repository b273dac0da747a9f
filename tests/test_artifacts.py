"""The one CSV writer against a row-at-a-time reference join."""

import numpy as np
import pytest

import mobcast.artifacts
from mobcast.artifacts import meta_line, write_csv
from mobcast.scenario import ama_default, scenario_hash

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300,
           1e16, 0.1, 2.0 / 3.0]


def row_csv(meta, columns) -> str:
    """Each row joined cell by cell: str(int(v)) for %d, format(float(v),
    ".17g") for %.17g, the value itself for %s, and "" for None."""
    def cell(value, fmt):
        if value is None:
            return ""
        if fmt == "%d":
            return str(int(value))
        if fmt == "%.17g":
            return format(float(value), ".17g")
        return str(value)

    lines = [f"# {meta}"] if meta else []
    lines.append(",".join(header for header, _, _ in columns))
    n = len(columns[0][2])
    for i in range(n):
        lines.append(",".join(cell(values[i], fmt)
                              for _, fmt, values in columns))
    return "".join(line + "\n" for line in lines)


def columns_of(rows: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    floats = rng.normal(size=rows) * 1e3
    floats[:min(rows, len(SPECIAL))] = SPECIAL[:rows]
    listed = [float(v) for v in rng.random(rows)]
    for i in range(0, rows, 4):
        listed[i] = None
    return [
        ("id", "%s", [f"H0_{i}" for i in range(rows)]),
        ("count", "%d", rng.integers(-10**6, 10**6, size=rows)),
        ("flag", "%d", [bool(v) for v in rng.integers(0, 2, size=rows)]),
        ("value", "%.17g", floats),
        ("maybe", "%.17g", listed),
        ("small", "%.17g", rng.random(rows).astype(np.float32)),
    ]


@pytest.mark.parametrize("rows, chunk", [(0, None), (1, None), (23, None),
                                         (23, 5), (20, 5), (23, 7)])
def test_writer_matches_row_join(tmp_path, monkeypatch, capsys, rows, chunk):
    if chunk is not None:
        monkeypatch.setattr(mobcast.artifacts, "CSV_CHUNK", chunk)
    columns = columns_of(rows)
    path = tmp_path / "out.csv"
    write_csv(str(path), "scenario=x master_seed=1", columns)
    assert path.read_text(encoding="utf-8") == row_csv(
        "scenario=x master_seed=1", columns)
    assert capsys.readouterr().out == f"wrote {path}\n"


def test_writer_without_meta_writes_no_comment(tmp_path):
    columns = columns_of(6)
    path = tmp_path / "out.csv"
    write_csv(str(path), None, columns)
    assert path.read_text(encoding="utf-8") == row_csv(None, columns)


def test_writer_refuses_ragged_columns(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="length"):
        write_csv(str(path), None, [("a", "%d", [1, 2]), ("b", "%d", [1])])
    assert not path.exists()


def test_meta_line_names_the_scenario():
    scenario = ama_default()
    assert meta_line(scenario) == (
        f"scenario=ama-default scenario_hash={scenario_hash(scenario)} "
        f"master_seed={scenario.master_seed}")
