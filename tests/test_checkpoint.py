"""Validated checkpoint and IDX reading: malformed files fail with FormatError."""

import io
import struct

import pytest

from masko import checkpoint as ck
from masko import data as dt
from masko import samplers as sp
from masko.cli import cli_main
from masko.errors import FormatError
from masko.training import TrainConfig, init_run


def trained_checkpoint_bytes(sampler="vanilla", decoder="mlp"):
    params, dec = init_run(TrainConfig(n=4, sampler=sampler, decoder=decoder, hidden=4,
                                       filters=2, latent_dim=2, rep_width=3))
    return ck.sampler_to_bytes(params) + ck.decoder_to_bytes(dec)


def vanilla_header(n, d):
    return struct.pack("<4sIBIII", b"MSKO", 1, 0, n, d, 0)


@pytest.mark.parametrize("sampler", list(sp.KINDS))
@pytest.mark.parametrize("decoder", ["mlp", "conv_resnet"])
def test_round_trip_every_kind(tmp_path, sampler, decoder):
    blob = trained_checkpoint_bytes(sampler, decoder)
    (tmp_path / "c.bin").write_bytes(blob)
    params, dec = ck.load_checkpoint(tmp_path / "c.bin")
    assert (params.kind, dec.kind) == (sampler, decoder)
    assert ck.sampler_to_bytes(params) + ck.decoder_to_bytes(dec) == blob


def test_header_claiming_more_than_the_file_holds(tmp_path, capsys):
    # 85 bytes whose vanilla header asks for 65535^2 * 65535 weights; the
    # reader must refuse before it tries to allocate them
    path = tmp_path / "huge.bin"
    path.write_bytes(vanilla_header(65535, 65535) + bytes(64))
    assert path.stat().st_size == 85
    with pytest.raises(FormatError, match="truncated"):
        ck.load_checkpoint(path)
    code = cli_main(["collapse", "--checkpoint", str(path), "--out", str(tmp_path / "c")])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def test_trailing_bytes_rejected(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(trained_checkpoint_bytes() + b"junk")
    with pytest.raises(FormatError, match="after the last blob"):
        ck.load_checkpoint(path)
    code = cli_main(["collapse", "--checkpoint", str(path), "--out", str(tmp_path / "c")])
    assert code == 2


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -0.3])
def test_bad_temperature_rejected(tmp_path, lam):
    params = sp.init_sampler("vanilla", n=4, d=2, seed=0)
    blob = ck.sampler_to_bytes(params)
    path = tmp_path / "t.bin"
    path.write_bytes(blob[:-8] + struct.pack("<d", lam))
    with pytest.raises(FormatError, match="temperature"):
        ck.load_checkpoint(path)
    assert cli_main(["collapse", "--checkpoint", str(path), "--out", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("n,d,k", [(0, 2, 0), (4, 0, 0), (4, 2, 3)])
def test_bad_sampler_dimensions_rejected(n, d, k):
    blob = struct.pack("<4sIBIII", b"MSKO", 1, 0, n, d, k) + bytes(8)
    with pytest.raises(FormatError, match="dimensions"):
        ck.read_sampler(io.BytesIO(blob))


def test_decoder_side_must_match_sampler(tmp_path):
    params = sp.init_sampler("concrete", n=4, seed=0)
    _, dec = init_run(TrainConfig(n=3, hidden=4))
    path = tmp_path / "c.bin"
    path.write_bytes(ck.sampler_to_bytes(params) + ck.decoder_to_bytes(dec))
    with pytest.raises(FormatError, match="side"):
        ck.load_checkpoint(path)


def test_idx_header_claiming_more_than_the_file_holds(tmp_path):
    path = tmp_path / "big.idx"
    path.write_bytes(struct.pack(">IIII", dt.IDX_IMAGES_F64, 2**32 - 1, 65535, 65535) + bytes(16))
    with pytest.raises(FormatError, match="truncated"):
        dt.load_idx(path)

