"""CSV persistence for trajectories and link sample rows.

Reals are serialized with 17 significant digits, which round-trips float64
exactly.  Files are written to a uniquely named temporary sibling and renamed
into place so output is either complete or absent.
"""
from __future__ import annotations

import csv
import os
from typing import Iterator, Sequence

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
    "read_link_rows_csv",
    "mangle_value",
]

TRAJECTORY_HEADER = ("path_id", "t", "x")
LINK_HEADER = ("lambda", "mu", "alpha", "t", "x")


def format_real(v: float) -> str:
    """17-significant-digit decimal form; parses back to the same float64."""
    return f"{v:.17g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` fully or not at all (temp file + rename).

    The temporary file gets a fresh random name, so concurrent writers never
    share one, and is created with the mode ``open(path, "w")`` would give
    (0o666 less the umask).  It is removed when anything fails.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp~"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def mangle_value(v: float) -> str:
    """Parameter value as a filename fragment, '.' replaced by 'p'."""
    return f"{v:g}".replace(".", "p")


def _read_rows(path: str, header: tuple[str, ...]) -> Iterator[list[str]]:
    """Data rows of the CSV at ``path`` under ``header``, blank rows skipped.

    Raises ValueError for a different header.  A row with another number of
    fields than the header, or a ValueError the caller throws in with
    ``records.throw(exc)`` while holding a row, raises ValueError naming its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = tuple(next(reader, ()))
        if found != header:
            raise ValueError(f"expected header {','.join(header)!r}, got {found!r}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                yield row
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def trajectories_to_csv(trajectories: Sequence[Trajectory]) -> str:
    """CSV text for paths 0..n-1, rows sorted by (path_id, t), one ``%`` per path."""
    parts = [",".join(TRAJECTORY_HEADER) + "\n"]
    for path_id, traj in enumerate(trajectories):
        pairs = np.column_stack((traj.times, traj.values)).ravel().tolist()
        parts.append((f"{path_id},%.17g,%.17g\n" * len(traj.times)) % tuple(pairs))
    return "".join(parts)


def write_trajectories_csv(path: str, trajectories: Sequence[Trajectory]) -> None:
    atomic_write_text(path, trajectories_to_csv(trajectories))


def read_trajectories_csv(path: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Parse a trajectory CSV back into per-path (times, values) arrays."""
    per_path: dict[int, list[tuple[float, float]]] = {}
    records = _read_rows(path, TRAJECTORY_HEADER)
    try:
        for pid, t, x in records:
            per_path.setdefault(int(pid), []).append((float(t), float(x)))
    except ValueError as exc:
        records.throw(exc)
    return {
        pid: (np.array([t for t, _ in rows]), np.array([x for _, x in rows]))
        for pid, rows in per_path.items()
    }


def read_link_rows_csv(path: str) -> list[SampleRow]:
    """Parse a link-rows CSV with header lambda,mu,alpha,t,x."""
    rows: list[SampleRow] = []
    records = _read_rows(path, LINK_HEADER)
    try:
        for row in records:
            lam, mu, alpha, t, x = (float(v) for v in row)
            rows.append(SampleRow(lam=lam, mu=mu, alpha=alpha, t=t, x=x))
    except ValueError as exc:
        records.throw(exc)
    return rows
