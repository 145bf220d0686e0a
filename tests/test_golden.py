"""Golden digests: training, collapse and eval outputs are pinned byte for byte.

For every sampler x decoder pair a short run on a small Gaussian random
field dataset must reproduce the recorded sha256 of its ``checkpoint.bin``,
and of its collapse probabilities together with the ``repr`` of the
fixed-mask error of the larger collapsed mask.  A refactor that claims to
keep behaviour must keep these digests.

Those runs are small (n=8, B=16).  A second set pins the benchmark's own
shapes: for each workload in ``perfbench/spec.json``, three train steps at
n=28 and the workload's batch size, the collapse at 1,024 draws and the
fixed-mask eval on 256 images, in one process at one BLAS thread, as the
benchmark runs them.

The digests depend on the platform: a different BLAS, CPU or numpy build
may sum in a different order and change the low bits.  They also depend
on the SIMD code numpy dispatches to for ``exp`` and ``log``: masko's
sigmoid and normal CDF run on numpy's ``exp``, not on scipy.special, and
conv2d's GEMMs call the dgemm of the OpenBLAS bundled with numpy; the
program imports no scipy.  The digests were recorded on x86-64 with
AVX-512, OpenBLAS and numpy 2.4.
Bytes are fixed at a given BLAS thread count.  These digests hold at 1
and at 2 threads, but only because of their small shapes: at n=28 the
MLP runs' products with K = 784 differ between the two counts.  If only
the platform changed, re-record them from a commit whose behaviour is
known to be unchanged.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import masko
from masko.data import gen_digits, gen_gaussian_random_field
from masko.evaluate import collapse_distribution, eval_fixed_mask
from masko.training import TrainConfig, train_loop

# (checkpoint.bin, collapse probabilities + eval repr)
GOLDEN = {
    ("vanilla", "mlp"): (
        "7ee0375d1f5737b940d8ef8cfd7f4625b1cbec2f9480c8f73b327c598328bc08",
        "ccc88c0fd716ea357eb7f87fb848ac32c9fcd1117e0fc1b305d04774eda83d23",
    ),
    ("vanilla", "conv_resnet"): (
        "8264d6edea26734d552203eaf3fcb5566536096e593af0d8ebcc1c7288c2842e",
        "25c10731fb99715ae6c4211802d614800557452ef0dae09fd0b40cf7ddaf0b21",
    ),
    ("hypernet", "mlp"): (
        "47d7148c0d43f1d55b44355a02e4074b2c811a133c31fc19ce1f7b1e0290f2d9",
        "94b5d2eeeae34e4db7b079079f752b75702fc029a5364cf09b8c2b2d2170a5c6",
    ),
    ("hypernet", "conv_resnet"): (
        "584abffc7cf4e6ccb94289230ab123c5f642f11024e694dbdf487b80364b0c49",
        "1ec9ce3079a9a7ef24db87d915c3ffcf303cf1f0b539a435caf43adf3c9bdd3d",
    ),
    ("independent", "mlp"): (
        "61de0b041e1f785e6c44ec7073beb672e595f47943ad83f55d18fa091d4f94b5",
        "06cea9a0659104bcb0e405a43397213b5f34db7b29c2fd983941b19b9ab0be52",
    ),
    ("independent", "conv_resnet"): (
        "36fdc339c29b3771bf0ee3abe77324489cc473771b0e5b9dac1c192d8f2562cf",
        "90ee6a936abdc4228b7843a9bb38c580064bc6f9878d10fbdb0e9496532d4787",
    ),
    ("concrete", "mlp"): (
        "67207cce4d372621d57f108ebcfd1a250cf5213c5286d976716d7c7800a47b8d",
        "b6b119878ce70887feaac481e9e9b217ecf7f9980b1b372d7a99934abce60fcb",
    ),
    ("concrete", "conv_resnet"): (
        "8bf69b61083cd8d44dc8b416c3f40173a2216653a860555db4b598d72ca2eb3a",
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


def run_one_thread(script: str, tmp_path) -> list[str]:
    """Words ``script`` prints in a fresh process at one BLAS thread, with
    this directory importable and ``sys.argv[1]`` set to ``tmp_path``."""
    path = os.pathsep.join([str(Path(masko.__file__).parents[1]), str(Path(__file__).parent)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_conv_digests_at_one_blas_thread(tmp_path):
    # The tests run at the machine's BLAS thread count and the benchmark at
    # one, and conv2d's GEMMs sum panels in BLAS.  One process checks the 4
    # conv_resnet pairs with numpy's OpenBLAS at 1 thread.
    script = (
        "import pathlib, sys\n"
        "from test_golden import GOLDEN, run_digests\n"
        "for sampler, decoder in sorted(GOLDEN):\n"
        "    if decoder == 'conv_resnet':\n"
        "        out = pathlib.Path(sys.argv[1], sampler)\n"
        "        out.mkdir()\n"
        "        print(sampler, run_digests(sampler, decoder, out) == GOLDEN[(sampler, decoder)])\n"
    )
    assert run_one_thread(script, tmp_path) == [
        word for sampler in ("concrete", "hypernet", "independent", "vanilla") for word in (sampler, "True")
    ]


SPEC = json.loads((Path(__file__).parents[1] / "perfbench" / "spec.json").read_text())

# checkpoint.bin + collapse probabilities + eval repr, per benchmark workload
BENCH_GOLDEN = {
    "concrete-conv": "b1a04f195e7f55bd2142015e75df0dc9bee28fd342d1365774dcd899b73a2966",
    "hypernet-mlp": "8534125976428824bea93f46d6be2fa71852822f2adf5ba12d8414a718907bc0",
    "vanilla-mlp": "0ec4456e75cc8a6c208e67b3647e49ad7efa70bcf36a477d8d61e0b6cf40be38",
}


def bench_shape_digest(workload: str, out_dir) -> str:
    """One epoch of three train steps of ``workload`` at n=28 on digits,
    the collapse at its ``mc_samples`` and the eval of the smaller
    collapsed mask on 256 held-out digits."""
    wl = SPEC["workloads"][workload]
    cfg = TrainConfig(n=28, seed=7, epochs=1, **wl["config"])
    train_count = 3 * cfg.batch_size
    images = gen_digits(train_count + 256, n=28, seed=7).images
    result = train_loop(images[:train_count], cfg, out_dir=out_dir)
    collapsed = collapse_distribution(result.sampler, mc_samples=wl["mc_samples"], seed=cfg.seed)
    mse = eval_fixed_mask(collapsed.masks[0], result.decoder, images[train_count:])
    blob = (out_dir / "checkpoint.bin").read_bytes() + collapsed.probs.tobytes() + repr(mse).encode()
    return sha256(blob)


def test_digests_at_benchmark_shapes(tmp_path):
    script = (
        "import pathlib, sys\n"
        "from test_golden import BENCH_GOLDEN, bench_shape_digest\n"
        "for workload in sorted(BENCH_GOLDEN):\n"
        "    out = pathlib.Path(sys.argv[1], workload)\n"
        "    out.mkdir()\n"
        "    print(workload, bench_shape_digest(workload, out))\n"
    )
    words = run_one_thread(script, tmp_path)
    assert dict(zip(words[::2], words[1::2])) == BENCH_GOLDEN
