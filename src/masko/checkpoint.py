"""Binary checkpoint format: a sampler blob, then the decoder blob trained with it.

Sampler blob, little endian: magic "MSKO" | version u32 | kind u8 | n u32 |
d u32 | k u32, where d and k are 0 if the kind has no such dimension; then
the kind's arrays as row-major float64; then the temperature as a float64.
Decoder blob: kind u8 | n u32 | width u32 (hidden units or filters); then
its arrays.  Arrays follow the declaration order of the kind's layout in
:data:`masko.samplers.KINDS` or :data:`masko.model.DECODER_KINDS`.

Reading checks every byte count a header implies against what remains of
the file before reading it, requires a finite positive temperature, and
rejects a file that ends before the decoder blob or has bytes after it;
each violation is a ``FormatError``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .data import read_exact, write_atomic
from .errors import FormatError
from .model import DECODER_KINDS, Decoder
from .samplers import KINDS, SamplerParams

MAGIC = b"MSKO"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIBIII")
_DEC_HEADER = struct.Struct("<BII")
_SAMPLER_TAGS = {spec.tag: kind for kind, spec in KINDS.items()}
_DECODER_TAGS = {spec.tag: kind for kind, spec in DECODER_KINDS.items()}


def _arrays_to_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values())


def _read_arrays(f, layout: dict) -> dict[str, np.ndarray]:
    arrays = {}
    for name, (shape, _) in layout.items():
        raw = read_exact(f, 8 * math.prod(shape))
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    return arrays


def sampler_to_bytes(params: SamplerParams) -> bytes:
    tag = KINDS[params.kind].tag
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, tag, params.n, params.d, params.k)
    return header + _arrays_to_bytes(params.arrays) + struct.pack("<d", params.lam)


def read_sampler(f) -> SamplerParams:
    """Read one sampler blob from a binary stream, leaving it positioned
    just past the blob, where a checkpoint's decoder blob starts.
    """
    magic, version, tag, n, d, k = _HEADER.unpack(read_exact(f, _HEADER.size))
    if magic != MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if tag not in _SAMPLER_TAGS:
        raise FormatError(f"unknown sampler tag {tag}")
    kind = _SAMPLER_TAGS[tag]
    spec = KINDS[kind]
    # n and the dimensions the kind uses are >= 1; the others are 0
    if n < 1 or (d > 0) != ("d" in spec.dims) or (k > 0) != ("k" in spec.dims):
        raise FormatError(f"bad {kind} sampler dimensions n={n} d={d} k={k}")
    arrays = _read_arrays(f, spec.layout(n * n, d, k))
    lam = struct.unpack("<d", read_exact(f, 8))[0]
    if not 0.0 < lam < math.inf:
        raise FormatError(f"temperature must be finite and positive, got {lam}")
    return SamplerParams(kind, arrays, lam, n, d, k)


def decoder_to_bytes(dec: Decoder) -> bytes:
    header = _DEC_HEADER.pack(DECODER_KINDS[dec.kind].tag, dec.n, dec.width)
    return header + _arrays_to_bytes(dec.arrays)


def read_decoder(f) -> Decoder:
    tag, n, width = _DEC_HEADER.unpack(read_exact(f, _DEC_HEADER.size))
    if tag not in _DECODER_TAGS:
        raise FormatError(f"unknown decoder tag {tag}")
    if n < 1 or width < 1:
        raise FormatError(f"bad decoder dimensions n={n} width={width}")
    kind = _DECODER_TAGS[tag]
    return Decoder(kind, _read_arrays(f, DECODER_KINDS[kind].layout(n * n, width)), n, width)


def save_checkpoint(params: SamplerParams, dec: Decoder, path: str | Path) -> None:
    """Sampler blob, then decoder blob; atomic replace."""
    write_atomic(path, sampler_to_bytes(params) + decoder_to_bytes(dec))


def load_checkpoint(path: str | Path) -> tuple[SamplerParams, Decoder]:
    with open(path, "rb") as f:
        params = read_sampler(f)
        dec = read_decoder(f)
        if f.read(1):
            raise FormatError(f"{path}: unexpected bytes after the last blob")
    if dec.n != params.n:
        raise FormatError(f"decoder side {dec.n} does not match sampler side {params.n}")
    return params, dec
