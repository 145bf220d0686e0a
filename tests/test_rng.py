"""Every random number the package draws comes from a Philox stream."""

import re
from pathlib import Path

import masko

NON_PHILOX = re.compile(r"default_rng|RandomState|np\.random\.seed")


def non_philox_lines(paths):
    return [
        f"{path.name}:{i}: {line.strip()}"
        for path in paths
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if NON_PHILOX.search(line)
    ]


def test_package_uses_only_philox_streams():
    hits = non_philox_lines(sorted(Path(masko.__file__).parent.glob("*.py")))
    assert not hits, hits


def test_oracles_use_only_philox_streams():
    hits = non_philox_lines([Path(__file__).with_name("oracles.py")])
    assert not hits, hits
