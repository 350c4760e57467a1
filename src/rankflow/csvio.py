"""CSV and manifest emission.

Floats are written with 17 significant digits so every double round-trips
exactly; reruns with the same config and seed produce byte-identical
files.  Fields are quoted only when they contain a comma, a double quote
or a line break (such as the `f_id` of a martingale row).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

__all__ = ["format_value", "write_csv", "write_manifest", "write_path_csv", "write_cdf_csv"]


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, np.floating):
        return f"{float(v):.17g}"
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows):
    """Write one CSV, creating its directory: a command that fails before
    its first CSV leaves no output directory behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)
    return path


def write_path_csv(path, brownian_path):
    return write_csv(path, ("t", "w"), zip(brownian_path.t_grid, brownian_path.values))


def write_cdf_csv(path, xs, fs):
    return write_csv(path, ("x", "F"), zip(xs, fs))


def write_manifest(path, *, command: str, config_sha256: str, seed: int,
                   outputs: list):
    payload = {
        "command": command,
        "config_sha256": config_sha256,
        "seed": seed,
        "outputs": sorted(str(o) for o in outputs),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
