"""The one write path of every output file: a temporary dot-name, then a rename.

A kill or a failed write leaves the previous file at the final name
intact, and a failed write leaves no temporary behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``.NAME.tmp`` beside path for writing; rename it onto path once closed."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
