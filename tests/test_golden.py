"""Golden digests: training, collapse and eval outputs are pinned byte for byte.

For every sampler x decoder pair a short run on a small Gaussian random
field dataset must reproduce the recorded sha256 of its ``checkpoint.bin``,
and of its collapse probabilities together with the ``repr`` of the
fixed-mask error of the larger collapsed mask.  A refactor that claims to
keep behaviour must keep these digests.

The digests depend on the platform: a different BLAS, CPU or numpy build
may sum in a different order and change the low bits.  They were recorded
on x86-64 with OpenBLAS and numpy 2.4, and hold at 1 and at 2 BLAS
threads.  If only the platform changed, re-record them from a commit whose
behaviour is known to be unchanged.
"""

import hashlib

import pytest

from masko.data import gen_gaussian_random_field
from masko.evaluate import collapse_distribution, eval_fixed_mask
from masko.training import TrainConfig, train_loop

# (checkpoint.bin, collapse probabilities + eval repr)
GOLDEN = {
    ("vanilla", "mlp"): (
        "d02a4174bb025cec1707acb901c42dae3081c142d1b9609d419e267a28efcf57",
        "ccc88c0fd716ea357eb7f87fb848ac32c9fcd1117e0fc1b305d04774eda83d23",
    ),
    ("vanilla", "conv_resnet"): (
        "2d7055c496210152629c292cf3ee75e34003720e5b5adba1cc15bc4d9ac13e8d",
        "25c10731fb99715ae6c4211802d614800557452ef0dae09fd0b40cf7ddaf0b21",
    ),
    ("hypernet", "mlp"): (
        "7bbeb48e413384758600212898e9fed1ba5665ff2476015bde2f08b69e339651",
        "94b5d2eeeae34e4db7b079079f752b75702fc029a5364cf09b8c2b2d2170a5c6",
    ),
    ("hypernet", "conv_resnet"): (
        "627def71c769b319574706e080fbfe28d46bdf0650ffa4522cabc7758863028f",
        "1ec9ce3079a9a7ef24db87d915c3ffcf303cf1f0b539a435caf43adf3c9bdd3d",
    ),
    ("independent", "mlp"): (
        "e04459a4b89a66597df39dfc23f8313586c95030d7a3a0ecd462726c86a90633",
        "06cea9a0659104bcb0e405a43397213b5f34db7b29c2fd983941b19b9ab0be52",
    ),
    ("independent", "conv_resnet"): (
        "d9832fe7e43246f6b66492dcfd1ef18a1218f0302944eb6101cb3e50dd8a1497",
        "90ee6a936abdc4228b7843a9bb38c580064bc6f9878d10fbdb0e9496532d4787",
    ),
    ("concrete", "mlp"): (
        "27f619bbac5e69bdcceebd97b3027a23de1f8a6321dd57de0887690da5187be1",
        "b6b119878ce70887feaac481e9e9b217ecf7f9980b1b372d7a99934abce60fcb",
    ),
    ("concrete", "conv_resnet"): (
        "f638cbe4650b20bda795d82e9a9be6ca4ac39fd9adedb477fa20300df05fb702",
        "4a8300449ae4f5004470b0cd68fe9ced378e5dbc21cd2f3d090257d946c60fdd",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(sampler: str, decoder: str, out_dir) -> tuple[str, str]:
    images = gen_gaussian_random_field(64, 8, 2.5, seed=7).images
    cfg = TrainConfig(
        n=8, sampler=sampler, decoder=decoder, epochs=2, batch_size=16,
        hidden=32, latent_dim=4, rep_width=8, filters=4, seed=7,
    )
    result = train_loop(images, cfg, out_dir=out_dir)
    collapsed = collapse_distribution(result.sampler, mc_samples=64, seed=7)
    mse = eval_fixed_mask(collapsed.masks[-1], result.decoder, images)
    checkpoint = sha256((out_dir / "checkpoint.bin").read_bytes())
    return checkpoint, sha256(collapsed.probs.tobytes() + repr(mse).encode())


@pytest.mark.parametrize("sampler,decoder", sorted(GOLDEN))
def test_digests_unchanged(sampler, decoder, tmp_path):
    assert run_digests(sampler, decoder, tmp_path) == GOLDEN[(sampler, decoder)]
