"""Every random number the package draws comes from a Philox stream."""

import ast
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


def stream_calls(path):
    """(name of the enclosing top-level definition, call) for each ``stream(...)`` in a module."""
    for node in ast.parse(path.read_text()).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "stream":
                yield getattr(node, "name", None), call


def test_only_init_run_opens_the_init_stream_and_no_seed_is_a_literal():
    # A run's parameters are seeded in one place, from the run's own seed.
    hits, openers = [], set()
    for path in sorted(Path(masko.__file__).parent.glob("*.py")):
        for owner, call in stream_calls(path):
            where = f"{path.name}:{call.lineno} ({owner})"
            seed = call.args[0] if call.args else {k.arg: k.value for k in call.keywords}.get("seed")
            if isinstance(seed, ast.Constant):
                hits.append(f"{where}: literal seed {seed.value!r}")
            if any(isinstance(a, ast.Name) and a.id == "STREAM_INIT" for a in ast.walk(call)):
                openers.add((path.name, owner))
                if (path.name, owner) != ("training.py", "init_run"):
                    hits.append(f"{where}: opens STREAM_INIT")
    assert not hits, hits
    assert openers == {("training.py", "init_run")}
