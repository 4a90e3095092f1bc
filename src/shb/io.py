"""File formats: LIBSVM and dense CSV ingestion, and the problem bundle.

The bundle is the canonical interchange format: a JSON manifest next to
a flat little-endian float64 payload holding A, b and the optional
planted solution, checksummed so round-trips are bit-exact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import shb.linalg as linalg
from shb.errors import BundleError, EmptyFile, MalformedLine, NonMonotoneIndices
from shb.problems import Problem

BUNDLE_KIND = "shb-problem"
BUNDLE_VERSION = 1


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Open path for writing through a temporary sibling file.

    The temporary file replaces path only when the block completes; on
    any error it is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(payload, path) -> None:
    """payload as indented JSON, written atomically."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


# a line the vectorised pass of parse_libsvm takes as it stands: ASCII
# decimal numbers, one ':' per feature, spaces and tabs; group 1 holds
# the features.  Every other line goes through _parse_line.
_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_PLAIN_LINE = re.compile(rf"[ \t]*{_NUMBER}((?:[ \t]+[0-9]{{1,18}}:{_NUMBER})*)[ \t]*")


def _parse_line(path, line_no: int, raw: str) -> list[tuple[int, float]]:
    """The (index, value) features of one line, checked token by token."""
    line = raw.strip()
    if not line:
        raise MalformedLine(f"{path}:{line_no}: blank line", line_no=line_no)
    tokens = line.split()
    try:
        float(tokens[0])
    except ValueError:
        raise MalformedLine(
            f"{path}:{line_no}: label {tokens[0]!r} is not a number",
            line_no=line_no,
            token=tokens[0],
        ) from None
    feats: list[tuple[int, float]] = []
    prev = 0
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise MalformedLine(
                f"{path}:{line_no}: token {tok!r} has no ':'", line_no=line_no, token=tok
            )
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise MalformedLine(
                f"{path}:{line_no}: cannot parse token {tok!r}", line_no=line_no, token=tok
            ) from None
        if idx < 1:
            raise MalformedLine(
                f"{path}:{line_no}: index {idx} is not 1-based", line_no=line_no, token=tok
            )
        if idx <= prev:
            raise NonMonotoneIndices(
                f"{path}:{line_no}: index {idx} after {prev} is not strictly increasing",
                line_no=line_no,
            )
        prev = idx
        feats.append((idx, val))
    return feats


def parse_libsvm(path) -> np.ndarray:
    """Dense feature matrix from a LIBSVM-format text file.

    Each line is `<label> <index>:<value> ...` with 1-based, strictly
    increasing indices.  Labels are parsed for validity and discarded;
    only the feature matrix is kept.  Column count is the largest index
    seen anywhere; absent entries are zero.  Trailing blank lines are
    tolerated, interior ones are not.  A file whose dense matrix would
    exceed linalg.MAX_DENSE_ELEMENTS entries is rejected before allocating.
    Plain lines are converted in one pass with Python's int and float and
    checked as arrays; other lines, and lines failing a check, are parsed
    token by token, which words the error of the first bad line.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise EmptyFile(f"{path}: no data rows")

    matches = [_PLAIN_LINE.fullmatch(line) for line in lines]
    plain = [i for i, match in enumerate(matches) if match]
    feats = [matches[i].group(1) for i in plain]
    counts = np.array([f.count(":") for f in feats], dtype=np.int64)
    words = " ".join(feats).replace(":", " ").split()
    idx = np.fromiter(map(int, words[0::2]), dtype=np.int64, count=len(words) // 2)
    vals = np.fromiter(map(float, words[1::2]), dtype=np.float64, count=len(words) // 2)
    rows = np.repeat(np.array(plain, dtype=np.int64), counts)
    rising = np.ones(idx.size, dtype=bool)  # within each line
    rising[1:] = (idx[1:] > idx[:-1]) | (rows[1:] != rows[:-1])
    flagged = set(rows[(idx < 1) | ~rising].tolist())
    flagged.update(i for i, match in enumerate(matches) if not match)

    # flagged plain lines raise here; the others are valid lines in
    # another spelling (Unicode digits, other whitespace, inf)
    others = [(i, f) for i in sorted(flagged) for f in _parse_line(path, i + 1, lines[i])]
    max_index = int(idx.max(initial=0))
    widest_line = int(rows[np.argmax(idx)]) + 1 if idx.size else 0
    for i, (j, _) in others:
        if j > max_index or (j == max_index and i + 1 < widest_line):
            max_index, widest_line = j, i + 1

    if len(lines) * max_index > linalg.MAX_DENSE_ELEMENTS:
        raise MalformedLine(
            f"{path}:{widest_line}: index {max_index} makes a {len(lines)}x{max_index} matrix,"
            f" over the limit of {linalg.MAX_DENSE_ELEMENTS} entries",
            line_no=widest_line,
        )
    mat = np.zeros((len(lines), max_index))
    mat[rows, idx - 1] = vals
    for i, (j, val) in others:
        mat[i, j - 1] = val
    return mat


def read_csv_matrix(path) -> np.ndarray:
    """Dense matrix from CSV; the first row is a header and is skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if len(rows) < 2:
        raise EmptyFile(f"{path}: no data rows")
    width = len(rows[0])
    data = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise MalformedLine(
                f"{path}:{line_no}: expected {width} cells, got {len(row)}", line_no=line_no
            )
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise MalformedLine(
                f"{path}:{line_no}: non-numeric cell", line_no=line_no
            ) from None
    return np.asarray(data)


def _bundle_paths(path) -> tuple[Path, Path]:
    manifest = Path(path)
    if manifest.suffix != ".json":
        manifest = manifest.with_suffix(".json")
    return manifest, manifest.with_suffix(".bin")


def write_bundle(problem: Problem, path) -> Path:
    """Write a problem as manifest JSON plus raw little-endian payload.

    Payload layout: A row-major, then b, then the planted solution when
    present, all float64.  The manifest records dimensions, provenance
    and a sha256 checksum of the payload bytes.
    """
    manifest_path, payload_path = _bundle_paths(path)
    rows, cols = problem.shape
    parts = [np.ascontiguousarray(problem.a, dtype="<f8").tobytes()]
    parts.append(np.ascontiguousarray(problem.b, dtype="<f8").tobytes())
    if problem.planted_solution is not None:
        parts.append(np.ascontiguousarray(problem.planted_solution, dtype="<f8").tobytes())
    payload = b"".join(parts)
    manifest = {
        "kind": BUNDLE_KIND,
        "version": BUNDLE_VERSION,
        "rows": rows,
        "cols": cols,
        "has_planted": problem.planted_solution is not None,
        "source": problem.source,
        "payload": payload_path.name,
        "checksum_sha256": hashlib.sha256(payload).hexdigest(),
    }
    with atomic_write(payload_path, "wb") as fh:
        fh.write(payload)
    write_json(manifest, manifest_path)
    return manifest_path


def _manifest_field(manifest: dict, key: str, kind: type, where: Path):
    value = manifest.get(key)
    # bool is an int subclass; a count must not be true/false
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise BundleError(f"{where}: field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def read_bundle(path) -> Problem:
    """Read a problem bundle back, verifying the payload checksum.

    Every manifest field is type-checked, and the payload must be a file
    in the manifest's own directory; a bad manifest raises BundleError.
    """
    manifest_path, _ = _bundle_paths(path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleError(f"{manifest_path}: cannot read manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != BUNDLE_KIND:
        raise BundleError(f"{manifest_path}: not a problem bundle")
    if manifest.get("version") != BUNDLE_VERSION:
        raise BundleError(f"{manifest_path}: unsupported version {manifest.get('version')!r}")
    payload_name = _manifest_field(manifest, "payload", str, manifest_path)
    if payload_name in ("", ".", "..") or Path(payload_name).name != payload_name:
        raise BundleError(f"{manifest_path}: payload {payload_name!r} is not a file name in the manifest's directory")
    checksum = _manifest_field(manifest, "checksum_sha256", str, manifest_path)
    rows = _manifest_field(manifest, "rows", int, manifest_path)
    cols = _manifest_field(manifest, "cols", int, manifest_path)
    has_planted = _manifest_field(manifest, "has_planted", bool, manifest_path)
    source = _manifest_field(manifest, "source", str, manifest_path)
    if rows < 1 or cols < 1:
        raise BundleError(f"{manifest_path}: shape {rows}x{cols} is not positive")
    payload_path = manifest_path.parent / payload_name
    try:
        payload = payload_path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise BundleError(f"{payload_path}: cannot read payload: {exc}") from exc
    if hashlib.sha256(payload).hexdigest() != checksum:
        raise BundleError(f"{payload_path}: checksum mismatch")
    expected = 8 * (rows * cols + rows + (cols if has_planted else 0))
    if len(payload) != expected:
        raise BundleError(
            f"{payload_path}: payload holds {len(payload)} bytes, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    a = flat[: rows * cols].reshape(rows, cols).copy()
    b = flat[rows * cols : rows * cols + rows].copy()
    planted = flat[rows * cols + rows :].copy() if has_planted else None
    return Problem(a=a, b=b, planted_solution=planted, source=source)
