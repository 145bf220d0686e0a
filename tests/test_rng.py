"""Every random number the package draws comes from a Philox stream."""

import re
from pathlib import Path

import masko

NON_PHILOX = re.compile(r"default_rng|RandomState|np\.random\.seed")


def test_package_uses_only_philox_streams():
    src = Path(masko.__file__).parent
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if NON_PHILOX.search(line)
    ]
    assert not hits, hits
