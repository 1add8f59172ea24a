"""Run ``repro.server``'s ``serve`` with the benchmark's span wrappers installed.

The traced daemon-mixed run starts the daemon through this launcher instead
of ``python -m repro.server``::

    python3 perfbench/daemon_launcher.py SPANS serve --port 0 ...

Wrappers cover the daemon's wire framing, per-key cache, response envelopes,
content keys and metrics; the forked pool worker records nothing.  When the
daemon exits, its spans go to ``SPANS`` (a NumPy archive).
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import require_program


def main() -> int:
    require_program()
    spans = Path(sys.argv[1])
    import repro.server.__main__ as server_main
    from tracer import Tracer, disable_in_forked_children, install

    tracer = Tracer()
    install(tracer, daemon=True)
    disable_in_forked_children(tracer)
    try:
        return server_main.main(sys.argv[2:])
    finally:
        tracer.write(spans)


if __name__ == "__main__":
    sys.exit(main())
