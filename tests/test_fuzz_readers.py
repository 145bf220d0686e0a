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
from masko import samplers as sp
from masko.data import gen_digits, load_idx, write_idx_images
from masko.errors import FormatError, MaskoError

from oracles import init_decoder, init_sampler

CASES = 400


def checkpoint_file(tmp_path, kind):
    """A valid checkpoint and the offsets of its two headers' bytes."""
    params = init_sampler(kind, n=3, d=2, k=3, seed=1)
    dec = init_decoder("mlp", n=3, hidden=4, rng=np.random.default_rng(1))
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


@pytest.mark.parametrize("kind", sp.KINDS)
def test_checkpoint_cut_at_the_decoder_blob_is_truncated(tmp_path, kind):
    # every checkpoint holds its decoder: a file that ends after the
    # sampler blob is truncated, not a sampler-only checkpoint
    valid, header, load = checkpoint_file(tmp_path, kind)
    dec_start = header[21]  # the decoder header's first byte
    valid.write_bytes(valid.read_bytes()[:dec_start])
    with pytest.raises(FormatError, match="truncated"):
        load(valid)
