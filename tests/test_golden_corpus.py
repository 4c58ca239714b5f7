"""The CLI prints, writes and exits exactly as recorded in ``tests/golden``
on every run of ``golden_corpus.RUNS``.  The runs happen in one fresh
process, so event ids do not depend on which tests ran before."""

import os
import subprocess
import sys
from pathlib import Path

import dpa
from golden_corpus import RUNS

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_cli_output_matches_the_golden_corpus(tmp_path):
    package_root = str(Path(dpa.__file__).resolve().parent.parent)
    tests_dir = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [package_root, tests_dir, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "golden_corpus", str(tmp_path / "out")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path},
        check=True,
        timeout=600,
    )
    recorded = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert len(recorded) == len(RUNS) == 54
    assert recorded == sorted(p.name for p in GOLDEN.iterdir())
    for name in recorded:
        got = (tmp_path / "out" / name).read_text(encoding="utf-8")
        assert got == (GOLDEN / name).read_text(encoding="utf-8"), name
