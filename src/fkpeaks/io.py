"""Field snapshots and CSV export.

Snapshots are flat little-endian float64 binaries with a JSON sidecar
recording the grid, byte order, and solver metadata.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .spectral import Field, GridSpec


def grid_to_dict(grid: GridSpec) -> dict:
    return {
        "dim": grid.dim,
        "half_width": grid.half_width,
        "points_per_dim": grid.points_per_dim,
    }


def grid_from_dict(d: dict) -> GridSpec:
    return GridSpec(int(d["dim"]), float(d["half_width"]),
                    int(d["points_per_dim"]))


def save_field(field: Field, prefix, meta: dict | None = None) -> Path:
    prefix = Path(prefix)
    data = np.ascontiguousarray(field.values, dtype="<f8")
    prefix.with_suffix(".bin").write_bytes(data.tobytes())
    sidecar = {
        "grid": grid_to_dict(field.grid),
        "shape": list(field.values.shape),
        "dtype": "<f8",
        "order": "C",
        "byteorder": "little",
        **(meta or {}),
    }
    prefix.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True, default=str)
    )
    return prefix.with_suffix(".bin")


def load_field(prefix) -> tuple[Field, dict]:
    prefix = Path(prefix)
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    grid = grid_from_dict(sidecar["grid"])
    raw = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<f8")
    vals = raw.reshape(sidecar["shape"]).astype(float)
    return Field(grid, vals), sidecar


def save_profile_csv(field: Field, path) -> None:
    """Two-column (x, value) export; 1D profiles only."""
    if field.grid.dim != 1:
        raise ParameterError("CSV profile export is defined for 1D fields")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(field.grid.axis, field.values):
            writer.writerow([repr(float(x)), repr(float(v))])

