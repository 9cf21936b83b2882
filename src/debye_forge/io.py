"""Persistent artifacts: DBYF binary fields, stage bundles, manifests.

Field binary layout (little-endian):

    magic   4 bytes  b"DBYF"
    version u32      1
    kind    u32      0 = real float64 grid values, 1 = complex (re, im interleaved)
    d       u32      number of grid axes
    dims    d * u32  grid shape
    payload row-major float64 (complex as interleaved re, im)

JSON outputs are serialized with sorted keys and repr-floats, so
re-running an identical configuration produces byte-identical files.
Manifests are written atomically (temp file + rename) and list every
output with its sha256.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time

import numpy as np

MAGIC = b"DBYF"
VERSION = 1

__all__ = [
    "write_field",
    "read_field",
    "dump_json",
    "load_json",
    "write_manifest",
    "sha256_file",
]


def write_field(path, array):
    """Write a real or complex ndarray in the DBYF layout."""
    array = np.asarray(array)
    complex_kind = np.iscomplexobj(array)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", VERSION, 1 if complex_kind else 0, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
        if complex_kind:
            inter = np.empty(array.shape + (2,), dtype="<f8")
            inter[..., 0] = array.real
            inter[..., 1] = array.imag
            fh.write(np.ascontiguousarray(inter).tobytes())
        else:
            fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a DBYF field (magic {magic!r})")
        version, kind, d = struct.unpack("<III", fh.read(12))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported DBYF version {version}")
        dims = struct.unpack(f"<{d}I", fh.read(4 * d))
        count = int(np.prod(dims)) * (2 if kind == 1 else 1)
        data = np.frombuffer(fh.read(8 * count), dtype="<f8", count=count)
    if kind == 1:
        data = data.reshape(dims + (2,))
        return data[..., 0] + 1j * data[..., 1]
    return data.reshape(dims).copy()


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return super().default(o)


def dump_json(path, obj):
    text = json.dumps(obj, cls=_Encoder, sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(stage_dir, config_hash, outputs, timings):
    """Atomic manifest: input hash, versions, timings, output checksums.

    The manifest is written to a temporary file and renamed into place,
    so an interrupted stage never leaves a partial manifest behind.
    """
    from . import __version__

    manifest = {
        "config_sha256": config_hash,
        "versions": {"debye_forge": __version__, "numpy": np.__version__},
        "timings_s": timings,
        "outputs": {os.path.basename(p): sha256_file(p) for p in outputs},
    }
    tmp = os.path.join(stage_dir, ".manifest.json.tmp")
    dump_json(tmp, manifest)
    os.replace(tmp, os.path.join(stage_dir, "manifest.json"))
    return manifest


def write_csv(path, header, rows):
    """Plain deterministic CSV with repr-precision floats."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class StageTimer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0
