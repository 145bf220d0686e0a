"""Seeded fuzz of the binary readers: a corrupted checkpoint or IDX file
either loads or raises a MaskoError, never any other exception.

Each case truncates a valid file or flips one to three of its bytes; half
of the flips land in a header, where a corrupt value decides how many
bytes the reader asks for.
"""

import zlib

import numpy as np
import pytest

from masko import checkpoint as ck
from masko import model as md
from masko import samplers as sp
from masko.data import gen_digits, load_idx, write_idx_images
from masko.errors import MaskoError

CASES = 400


def checkpoint_file(tmp_path, kind):
    """A valid checkpoint and the offsets of its two headers' bytes."""
    params = sp.init_sampler(kind, n=3, d=2, k=3, seed=1)
    dec = md.init_decoder("mlp", n=3, hidden=4, rng=np.random.default_rng(1))
    path = tmp_path / "valid.bin"
    ck.save_checkpoint(params, dec, path)
    dec_start = len(ck.sampler_to_bytes(params))
    return path, [*range(21), *range(dec_start, dec_start + 9)], ck.load_checkpoint


def idx_file(tmp_path, dtype):
    path = tmp_path / "valid.idx"
    write_idx_images(gen_digits(3, n=12, seed=1).images, path, dtype=dtype)
    return path, list(range(16)), load_idx


FILES = {
    **{f"checkpoint-{kind}": (checkpoint_file, kind) for kind in sp.KINDS},
    "idx-u8": (idx_file, "u8"),
    "idx-f64": (idx_file, "f64"),
}


def corrupt(blob: bytes, header: list[int], rng: np.random.Generator) -> bytes:
    if rng.random() < 0.25:
        return blob[: int(rng.integers(0, len(blob)))]
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        at = header[rng.integers(len(header))] if rng.random() < 0.5 else rng.integers(len(out))
        out[at] ^= int(rng.integers(1, 256))
    return bytes(out)


@pytest.mark.parametrize("name", FILES)
def test_corrupt_file_loads_or_raises_masko_error(tmp_path, name):
    make, arg = FILES[name]
    valid, header, load = make(tmp_path, arg)
    blob = valid.read_bytes()
    load(valid)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    path = tmp_path / "case"
    for case in range(CASES):
        path.write_bytes(corrupt(blob, header, rng))
        try:
            load(path)
        except MaskoError:
            pass
        except Exception as e:
            pytest.fail(f"case {case}: {type(e).__name__}: {e}")
