"""CSV and JSON file helpers shared by the experiment harnesses and the CLI.

CSV convention: first row is a header, UTF-8, comma-separated, ``.`` decimal.
An optional integer column named ``label`` carries class ids; every other
column is a numeric feature.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError
from .kernels import _as_points


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix, read as a sample set by ``kernels._as_points``, and labels."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        f = _as_points(self.features)
        object.__setattr__(self, "features", f)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape[0] != f.shape[0]:
                raise DatasetError(
                    f"{lab.shape[0]} labels for {f.shape[0]} feature rows"
                )
            object.__setattr__(self, "labels", lab)

    def __len__(self):
        return self.features.shape[0]


class CsvFormatError(ValueError):
    """CSV parse failure; message names file, line, and column."""


def read_labeled_csv(path) -> LabeledDataset:
    """Read a header-first CSV into a LabeledDataset.

    Raises CsvFormatError naming file, line, and column on any parse
    failure.  An empty data section yields a 0-row dataset whose feature
    dimension comes from the header.  Without a ``label`` column the rows
    after the header go to ``np.loadtxt`` first (about twice as fast as
    converting each cell in Python, with bit-identical values); the
    ``csv``-module scan below stays the only route for a ``label`` column,
    and reads the file again whenever ``loadtxt`` rejects the rows, finds
    none, or finds a column count other than the header's, so blank lines,
    0-row files and every error message behave as before.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if "label" not in header:
            features = _loadtxt_rows(fh, len(header))
            if features is not None:
                return LabeledDataset(features=features)
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
        label_idx = header.index("label") if "label" in header else None
        feat_idx = [k for k in range(len(header)) if k != label_idx]
        rows, labels = [], []
        for row in reader:
            if not row:
                continue
            # Physical line, not record count: a quoted cell may span lines.
            lineno = reader.line_num
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                rows.append([float(row[k]) for k in feat_idx])
            except ValueError:
                bad = next(k for k in feat_idx if not _is_float(row[k]))
                raise CsvFormatError(
                    f"{path}: line {lineno}: column {header[bad]!r}: "
                    f"not a number: {row[bad]!r}"
                ) from None
            if label_idx is not None:
                try:
                    labels.append(int(row[label_idx]))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: column 'label': "
                        f"not an integer: {row[label_idx]!r}"
                    ) from None
    features = np.array(rows, dtype=float) if rows else np.zeros((0, len(feat_idx)))
    return LabeledDataset(
        features=features,
        labels=np.array(labels, dtype=int) if label_idx is not None else None,
    )


def _loadtxt_rows(fh, width):
    """The rest of ``fh`` as a float matrix, or ``None`` to scan it cell by cell.

    ``loadtxt`` accepts a ``#`` cell as a comment unless ``comments=None``,
    takes any consistent column count, and warns and returns shape (0, 1) on
    an empty body; each of these goes back to the scan.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(
                fh, delimiter=",", ndmin=2, comments=None, encoding="utf-8"
            )
    except ValueError:
        return None
    if rows.shape[0] == 0 or rows.shape[1] != width:
        return None
    return rows


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def read_matrix_csv(path) -> np.ndarray:
    """Read a header-first all-numeric CSV as a dense matrix."""
    ds = read_labeled_csv(path)
    if ds.labels is not None:
        raise CsvFormatError(f"{path}: matrix CSV must not carry a 'label' column")
    return ds.features


def _atomic_write(path, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, M, header=None, extra_columns=None) -> None:
    """Write a matrix as CSV with a header row, atomically.

    ``extra_columns`` is an optional list of ``(name, values)`` of integers
    or flags, appended after the numeric columns (used for e.g. the
    fallback flag).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if header is None:
        header = [f"y{k}" for k in range(M.shape[1])]
    names = list(header)
    extras = extra_columns or []
    names += [name for name, _ in extras]
    # Built column by column: tolist() yields Python floats, whose repr is
    # the shortest round trip, and Python ints and bools, whose str is the
    # one their numpy scalars print.
    cols = [map(repr, col) for col in M.T.tolist()]
    cols += [map(str, np.asarray(vals).tolist()) for _, vals in extras]
    rows = map(",".join, zip(*cols))
    _atomic_write(path, "\n".join([",".join(names), *rows]) + "\n")


def write_json(path, doc) -> None:
    """Serialize to JSON atomically; floats use shortest round-trip repr."""
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def file_digest(path) -> str:
    """SHA-256 of the file's bytes as a 64-hex-digit string."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
