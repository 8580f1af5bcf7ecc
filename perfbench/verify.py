"""Output checks against the recorded references.

Every file a workload writes is compared with the reference recorded
from the same config at seed 0.  Byte identity is counted (it is the
refactor gate); where bytes differ the file must still agree in
structure: discrete fields (theorem, fired, flags, regime,
breakdown_observed, error and any other text) exactly, and numbers to
REL_TOL relative to the largest magnitude of their column, array or
value.  ``snapshots.bin`` is kept in the references as a digest: its
header, every record time, every 64th-of-the-grid cell of tau and u,
and per-record max and L1 norm of both fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

REL_TOL = 1e-9

_SNAP_HEADER = struct.Struct("<8sq5d")
_SNAP_MAGIC = b"SHKL1\x00\x00\x00"
_SNAP_SAMPLES = 64
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * scale


def _float(s: str):
    try:
        return float(s)
    except ValueError:
        return None


# ---------------------------------------------------------------------
# per-format comparators; each returns a list of problems
# ---------------------------------------------------------------------

def _split_cell(cell: str):
    """A cell as a tuple of numbers, or None when it is discrete.
    Brackets 'lo..hi' are two numbers; an empty cell is no number."""
    if cell == "":
        return ()
    parts = cell.split("..")
    values = [_float(p) for p in parts]
    return None if any(v is None for v in values) else tuple(values)


def compare_csv(out: str, ref: str) -> list:
    out_rows = [line.split(",") for line in out.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    if not ref_rows or out_rows[:1] != ref_rows[:1]:
        return ["header differs"]
    if len(out_rows) != len(ref_rows):
        return [f"{len(out_rows) - 1} rows, reference has {len(ref_rows) - 1}"]
    if any(len(r) != len(ref_rows[0]) for r in out_rows):
        return ["ragged rows"]
    problems = []
    for j, col in enumerate(ref_rows[0]):
        ref_cells = [_split_cell(r[j]) for r in ref_rows[1:]]
        if any(c is None for c in ref_cells):
            bad = sum(1 for r, o in zip(ref_rows[1:], out_rows[1:]) if r[j] != o[j])
            if bad:
                problems.append(f"column {col}: {bad} discrete values differ")
            continue
        finite = [abs(v) for c in ref_cells for v in c if math.isfinite(v)]
        scale = max(finite, default=0.0)
        bad = 0
        for rc, o in zip(ref_cells, out_rows[1:]):
            oc = _split_cell(o[j])
            if oc is None or len(oc) != len(rc) or not all(
                _close(x, y, scale) for x, y in zip(oc, rc)
            ):
                bad += 1
        if bad:
            problems.append(f"column {col}: {bad} values outside relative {REL_TOL}")
    return problems


def _compare_json_value(out, ref, where: str) -> list:
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if out == ref and type(out) is type(ref) else [f"{where} differs"]
    if isinstance(ref, (int, float)):
        if isinstance(out, bool) or not isinstance(out, (int, float)):
            return [f"{where} is not a number"]
        ok = _close(float(out), float(ref), max(abs(float(out)), abs(float(ref))))
        return [] if ok else [f"{where} outside relative {REL_TOL}"]
    if isinstance(ref, dict):
        if not isinstance(out, dict) or sorted(out) != sorted(ref):
            return [f"{where} keys differ"]
        return [p for k in ref for p in _compare_json_value(out[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{where} length differs"]
        return [p for i, (o, r) in enumerate(zip(out, ref))
                for p in _compare_json_value(o, r, f"{where}[{i}]")]
    return [f"{where}: unexpected type"]


def compare_json(out: str, ref: str) -> list:
    try:
        out_obj = json.loads(out)
    except ValueError:
        return ["not valid JSON"]
    return _compare_json_value(out_obj, json.loads(ref), "$")


def compare_text(out: str, ref: str) -> list:
    """Text with numbers in it: the text around the numbers exactly, each
    number relative to its own magnitude."""
    if _NUMBER.sub("#", out) != _NUMBER.sub("#", ref):
        return ["text differs"]
    bad = sum(
        1 for o, r in zip(_NUMBER.findall(out), _NUMBER.findall(ref))
        if not _close(float(o), float(r), max(abs(float(o)), abs(float(r))))
    )
    return [f"{bad} numbers outside relative {REL_TOL}"] if bad else []


def snapshot_digest(path: Path) -> dict:
    """Header, times and a fixed sample of every snapshot record."""
    data = Path(path).read_bytes()
    if len(data) < _SNAP_HEADER.size:
        raise ValueError("snapshot file truncated in header")
    magic, n, *params = _SNAP_HEADER.unpack_from(data)
    if magic != _SNAP_MAGIC:
        raise ValueError("bad snapshot magic")
    body = np.frombuffer(data, dtype="<f8", offset=_SNAP_HEADER.size)
    width = 1 + 2 * n
    if body.size % width:
        raise ValueError("snapshot file truncated mid-record")
    recs = body.reshape(-1, width)
    tau, u = recs[:, 1::2], recs[:, 2::2]
    stride = max(1, n // _SNAP_SAMPLES)
    return {
        "n": np.array([n]),
        "params": np.array(params),
        "times": recs[:, 0].copy(),
        "tau_sample": tau[:, ::stride].copy(),
        "u_sample": u[:, ::stride].copy(),
        "tau_max": np.abs(tau).max(axis=1),
        "u_max": np.abs(u).max(axis=1),
        "tau_l1": np.abs(tau).sum(axis=1),
        "u_l1": np.abs(u).sum(axis=1),
    }


def compare_snapshots(out_path: Path, ref_digest_path: Path) -> list:
    try:
        out = snapshot_digest(out_path)
    except ValueError as e:
        return [str(e)]
    with np.load(ref_digest_path, allow_pickle=False) as ref:
        if out["n"][0] != ref["n"][0]:
            return ["grid size differs"]
        if out["times"].shape != ref["times"].shape:
            return [f"{out['times'].size} records, reference has {ref['times'].size}"]
        problems = []
        for key in sorted(ref.files):
            r, o = ref[key], out[key]
            scale = float(np.max(np.abs(r), initial=0.0))
            if not np.all((o == r) | (np.abs(o - r) <= REL_TOL * scale)):
                problems.append(f"{key} outside relative {REL_TOL}")
        return problems


def compare_file(out_path: Path, ref_dir: Path) -> list:
    name = out_path.name
    if name == "snapshots.bin":
        return compare_snapshots(out_path, ref_dir / "snapshots.npz")
    out, ref = out_path.read_text(), (ref_dir / name).read_text()
    if name.endswith(".csv"):
        return compare_csv(out, ref)
    if name.endswith(".json"):
        return compare_json(out, ref)
    return compare_text(out, ref)


# ---------------------------------------------------------------------
# checks that need no reference
# ---------------------------------------------------------------------

def csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def max_trace_deviation(path: Path) -> float:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        j = header.index("deviation")
        return max(float(line.rstrip("\n").split(",")[j]) for line in fh)
