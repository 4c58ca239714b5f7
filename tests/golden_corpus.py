"""The CLI's output on the bundled models, recorded run by run.

``RUNS`` is a fixed, ordered list of ``dpa`` command lines over the six
bundled models.  ``record(out_dir)`` runs them in order, in this process,
and writes one text file per run: its command line, exit code, stdout,
stderr, the JSON report without its ``timings`` and every DOT file it
wrote.  Event ids are interned in first-use order, so the runs must start
in a fresh process to be comparable; run it as::

    PYTHONPATH=src:tests python -m golden_corpus OUT_DIR

from any directory: the runs work in a temporary directory that holds a
copy of the bundled models.  ``tests/test_golden_corpus.py`` diffs a fresh
recording against ``tests/golden``; to accept a deliberate output change,
record into ``tests/golden`` and review the diff.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import dpa
from dpa.cli import main

MODELS = (
    "ringbuffer",
    "philosophers",
    "philosophers_symmetric",
    "two_ring",
    "client_server",
    "leadership",
)
WITH_DESCRIPTOR = {"philosophers", "philosophers_symmetric", "client_server", "leadership"}
JSON_OUT = "report.json"
DOT_DIR = "dot"
REPORTS = ["--json", JSON_OUT, "--dot-dir", DOT_DIR]


def _runs():
    for name in MODELS:
        model = f"models/{name}.net"
        pattern = f"models/{name}.pattern.json"
        yield ["check", model]
        yield ["check", model, "--oracle"]
        yield ["check", model] + REPORTS
        if name in WITH_DESCRIPTOR:
            yield ["check", model, "--pattern", pattern]
            yield ["check", model, "--pattern", pattern, "--oracle"] + REPORTS
        yield ["decompose", model]
        yield ["decompose", model] + REPORTS
        yield ["conflict", model, "0", "1"]
        yield ["oracle", model] + REPORTS
        if name in WITH_DESCRIPTOR:
            yield ["pattern", model, pattern]


RUNS = list(_runs())


def _file_name(number, argv):
    words = [w.replace("models/", "").replace(".pattern.json", "").replace(".net", "")
             for w in argv if w not in (JSON_OUT, DOT_DIR)]
    return f"{number:02d}-" + "-".join(w.lstrip("-") for w in words) + ".txt"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    parts = [
        f"$ dpa {' '.join(argv)}",
        f"exit: {code}",
        "--- stdout",
        out.getvalue(),
        "--- stderr",
        err.getvalue(),
    ]
    if os.path.exists(JSON_OUT):
        with open(JSON_OUT, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("timings", None)
        parts += [f"--- {JSON_OUT}", json.dumps(report, indent=2) + "\n"]
        os.remove(JSON_OUT)
    if os.path.isdir(DOT_DIR):
        for name in sorted(os.listdir(DOT_DIR)):
            with open(os.path.join(DOT_DIR, name), encoding="utf-8") as fh:
                parts += [f"--- {DOT_DIR}/{name}", fh.read()]
        shutil.rmtree(DOT_DIR)
    return "\n".join(parts)


def record(out_dir):
    """Run every command of ``RUNS`` and write its record into ``out_dir``."""
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(Path(dpa.__file__).parent / "models", Path(work) / "models")
        os.chdir(work)
        for number, argv in enumerate(RUNS, start=1):
            text = _run(argv)
            with open(os.path.join(out_dir, _file_name(number, argv)), "w", encoding="utf-8") as fh:
                fh.write(text)


if __name__ == "__main__":
    record(sys.argv[1])
