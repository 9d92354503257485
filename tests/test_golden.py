"""Golden digests: one seeded ``fixture`` -> ``trace`` chain reproduces the
bytes recorded in ``tests/golden/trace_chain.json``.

A change that alters these outputs on purpose records new digests and says
why. NumPy does not promise the same ``Generator`` streams across releases,
so on a numpy whose major or minor version differs from the recorded one the
test names the files that differ and skips, rather than report a defect.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from multicell import cli

GOLDEN = Path(__file__).parent / "golden"


def _major_minor(version: str) -> tuple[str, ...]:
    return tuple(version.split(".")[:2])


def test_fixture_trace_chain_digests(tmp_path, capsys):
    golden = json.loads((GOLDEN / "trace_chain.json").read_text())
    paths = {"config": GOLDEN / "net.json", "polls": tmp_path / "fixture" / "polls.csv"}
    for step, argv in golden["steps"].items():
        fill = dict(paths, out=tmp_path / step)
        assert cli.main([a.format(**fill) for a in argv]) == 0, capsys.readouterr().err
    differ = sorted(name for name, digest in golden["sha256"].items()
                    if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != digest)
    if differ and _major_minor(np.__version__) != _major_minor(golden["numpy"]):
        pytest.skip(f"numpy {np.__version__}, digests made with {golden['numpy']}; "
                    f"these outputs differ: {', '.join(differ)}")
    assert differ == []
