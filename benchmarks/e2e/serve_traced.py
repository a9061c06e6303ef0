"""``repro serve`` with the benchmark's tracer installed.

Usage: ``python serve_traced.py SPOOL_DIR serve --socket ... [serve args]``

The traced service rounds talk to a daemon started this way.  Shard
worker processes fork from it with the wrappers in place and spool
their spans to ``SPOOL_DIR`` (see ``trace.py``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from trace import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spool, serve_args = argv[0], argv[1:]
    workloads.ensure_source()
    import repro.service.server  # noqa: F401  (load the modules the wrappers rebind)
    from repro.cli import main as cli_main

    tracer = Tracer(f"serve-{os.getpid()}", spool_dir=spool, spool_all=True)
    workloads.install_pipeline_tracing(tracer)
    return cli_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
