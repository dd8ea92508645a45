"""CSV persistence for trajectories and link sample rows.

Reals are serialized with 17 significant digits, which round-trips float64
exactly.  Files are written to a temporary sibling and renamed into place so
output is either complete or absent.
"""
from __future__ import annotations

import csv
import os
from typing import Sequence

import numpy as np

from .link_fit import SampleRow
from .sde_sim import Trajectory

__all__ = [
    "TRAJECTORY_HEADER",
    "LINK_HEADER",
    "format_real",
    "atomic_write_text",
    "trajectories_to_csv",
    "write_trajectories_csv",
    "read_trajectories_csv",
    "write_link_rows_csv",
    "read_link_rows_csv",
    "mangle_value",
]

TRAJECTORY_HEADER = ("path_id", "t", "x")
LINK_HEADER = ("lambda", "mu", "alpha", "t", "x")


def format_real(v: float) -> str:
    """17-significant-digit decimal form; parses back to the same float64."""
    return f"{v:.17g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` fully or not at all (temp file + rename)."""
    tmp = f"{path}.tmp~"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def mangle_value(v: float) -> str:
    """Parameter value as a filename fragment, '.' replaced by 'p'."""
    return f"{v:g}".replace(".", "p")


def _check_header(reader, expected: tuple[str, ...]) -> None:
    header = tuple(next(reader, ()))
    if header != expected:
        raise ValueError(f"expected header {','.join(expected)!r}, got {header!r}")


def trajectories_to_csv(trajectories: Sequence[Trajectory]) -> str:
    """CSV text for paths 0..n-1, rows sorted by (path_id, t)."""
    lines = [",".join(TRAJECTORY_HEADER)]
    for path_id, traj in enumerate(trajectories):
        for t, x in zip(traj.times, traj.values):
            lines.append(f"{path_id},{format_real(t)},{format_real(x)}")
    return "\n".join(lines) + "\n"


def write_trajectories_csv(path: str, trajectories: Sequence[Trajectory]) -> None:
    atomic_write_text(path, trajectories_to_csv(trajectories))


def read_trajectories_csv(path: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Parse a trajectory CSV back into per-path (times, values) arrays."""
    per_path: dict[int, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(reader, TRAJECTORY_HEADER)
        for row in reader:
            per_path.setdefault(int(row[0]), []).append((float(row[1]), float(row[2])))
    return {
        pid: (np.array([t for t, _ in rows]), np.array([x for _, x in rows]))
        for pid, rows in per_path.items()
    }


def write_link_rows_csv(path: str, rows: Sequence[SampleRow]) -> None:
    lines = [",".join(LINK_HEADER)]
    for r in rows:
        lines.append(",".join(format_real(v) for v in (r.lam, r.mu, r.alpha, r.t, r.x)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_link_rows_csv(path: str) -> list[SampleRow]:
    """Parse a link-rows CSV with header lambda,mu,alpha,t,x."""
    rows: list[SampleRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(reader, LINK_HEADER)
        for row in reader:
            if not row:
                continue
            lam, mu, alpha, t, x = (float(v) for v in row)
            rows.append(SampleRow(lam=lam, mu=mu, alpha=alpha, t=t, x=x))
    return rows
