"""The bundled model files under ``src/dpa/models``, as one table.

``BUNDLED`` maps each file's name to a function returning its text, in
the order the corpora walk them: the parametrised families at their
default sizes come from their ``dpa.models`` builders, and the fixed
models are read from their files, which are their only copy.
``write_bundled(directory)`` writes the table out; ``tests/test_dsl.py``
checks that it names exactly the bundled files and that each equals its
builder (to regenerate a stale file, run ``write_bundled`` on that
directory).
"""

import json
from functools import partial
from pathlib import Path

import dpa
from dpa import models

MODELS = Path(dpa.__file__).resolve().parent / "models"


def read(name):
    """The text of the bundled file ``name``."""
    return (MODELS / name).read_text(encoding="utf-8")


def client_server_descriptor():
    """A fresh copy of the client-server descriptor document."""
    return json.loads(read("client_server.pattern.json"))


BUNDLED = {
    "ringbuffer.net": lambda: models.ring_buffer_source(3),
    "philosophers.net": lambda: models.philosophers_source(3),
    "philosophers_symmetric.net": lambda: models.philosophers_source(3, symmetric=True),
    "two_ring.net": partial(read, "two_ring.net"),
    "client_server.net": partial(read, "client_server.net"),
    "leadership.net": lambda: models.leadership_source(2),
    "philosophers.pattern.json": lambda: json.dumps(
        models.philosophers_descriptor(3), indent=2
    ),
    "philosophers_symmetric.pattern.json": lambda: json.dumps(
        models.philosophers_descriptor(3, symmetric=True), indent=2
    ),
    "client_server.pattern.json": partial(read, "client_server.pattern.json"),
    "leadership.pattern.json": lambda: json.dumps(
        models.leadership_descriptor(2), indent=2
    ),
}


def write_bundled(directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, builder in BUNDLED.items():
        content = builder()
        text = content if content.endswith("\n") else content + "\n"
        (directory / name).write_text(text, encoding="utf-8")
