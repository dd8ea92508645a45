"""CSV persistence for trajectories and link sample rows.

Reals are serialized with 17 significant digits, which round-trips float64
exactly.  Files are written to a uniquely named temporary sibling and renamed
into place so output is either complete or absent.
"""
from __future__ import annotations

import csv
import errno
import io
import os
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # the rng and selfsim commands need neither module
    from .link_fit import SampleRow
    from .sde_sim import Trajectory

__all__ = [
    "TRAJECTORY_HEADER",
    "LINK_HEADER",
    "format_real",
    "atomic_write_text",
    "trajectories_to_csv",
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
    (0o666 less the umask).  It is removed when anything fails, and an
    ``OSError`` names ``path``, so its message never shows the random name.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp~"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _refuse_paths(paths, names="{} and {}", outdir=None) -> None:
    """Raise, opening none of ``paths`` (None skipped), the error its open would give.

    A path naming an earlier one's file comes first (``names`` formats the pair),
    then ``outdir`` is made if given; reads and writes refuse a bad parent alike.
    """
    paths = [p for p in paths if p is not None]
    earlier = {}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in earlier:
            raise ValueError(names.format(repr(path), repr(earlier[real])) + " name the same file")
        earlier[real] = path
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    for path in paths:
        try:  # a missing or file parent, a directory, or "", which names no file
            os.stat(os.path.join(os.path.dirname(path) or ".", "") if path else "")
            if os.path.isdir(path) and not os.path.islink(path):  # the rename replaces a link
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def mangle_value(v: float) -> str:
    """Parameter value as a filename fragment, '.' replaced by 'p'."""
    return f"{v:g}".replace(".", "p")


def _read_rows(path: str, header: tuple[str, ...], parse: Callable) -> Iterator:
    """``parse(fields)`` of each data row of the CSV at ``path`` under ``header``.

    Blank rows are skipped.  Raises ValueError for a different header, and
    one naming the line of a row the csv module refuses (a field over its
    limit), whose field count differs from the header's or whose ``parse``
    raises ValueError.  Undecodable bytes are refused first, by file and byte offset.
    """
    try:
        with open(path, newline="") as fh:  # one read decodes all, so errors count from byte 0
            reader = csv.reader(io.StringIO(fh.read(), newline=""))  # lines split as fh splits
        found = tuple(next(reader, ()))
        for row in filter(None, reader if found == header else ()):
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            yield parse(row)
    except UnicodeDecodeError as exc:  # raised before any row, so no line locates it
        raise ValueError(f"{path}: {exc}") from None
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if found != header:
        raise ValueError(f"expected header {','.join(header)!r}, got {found!r}")


def trajectories_to_csv(trajectories: Sequence[Trajectory]) -> str:
    """CSV text for paths 0..n-1, rows sorted by (path_id, t), one ``%`` per path."""
    parts = [",".join(TRAJECTORY_HEADER) + "\n"]
    for path_id, traj in enumerate(trajectories):
        pairs = np.column_stack((traj.times, traj.values)).ravel().tolist()
        parts.append((f"{path_id},%.17g,%.17g\n" * len(traj.times)) % tuple(pairs))
    return "".join(parts)


def read_trajectories_csv(path: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Parse a trajectory CSV back into per-path (times, values) arrays."""
    per_path: dict[int, list[tuple[float, float]]] = {}
    points = _read_rows(path, TRAJECTORY_HEADER, lambda r: (int(r[0]), float(r[1]), float(r[2])))
    for pid, t, x in points:
        per_path.setdefault(pid, []).append((t, x))
    return {pid: tuple(map(np.array, zip(*rows))) for pid, rows in per_path.items()}


def read_link_rows_csv(path: str) -> list[SampleRow]:
    """Parse a link-rows CSV with header lambda,mu,alpha,t,x, SampleRow's field order."""
    from .link_fit import SampleRow

    return list(_read_rows(path, LINK_HEADER, lambda row: SampleRow(*map(float, row))))
