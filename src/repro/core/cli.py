"""Standard output of the one-shot command-line tools."""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def reader_may_leave() -> Iterator[None]:
    """Write a command's output to a reader that may have gone (``cmd | head``).

    The output is flushed inside the block, so a closed pipe shows here and
    not when the interpreter flushes at exit.  Then, as Python's ``signal``
    documentation advises for ``EPIPE``, stdout is pointed at ``os.devnull``
    and the command exits with status 1, without a traceback.
    """
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(1)
