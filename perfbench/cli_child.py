"""Run one ``ruelle`` command in this fresh process with span recording.

Usage: ``python cli_child.py SPANS_DIR COMMAND --config ... --out ...``.  The
import of the package is its own span (``cli.import``); the spans are written
to ``SPANS_DIR/spans-COMMAND.json`` when the command returns.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer, install


def main(argv) -> int:
    spans_dir, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import ruelle.cli

    tracer.close(idx)
    install(tracer)
    try:
        return ruelle.cli.main(cli_args)
    finally:
        (spans_dir / f"spans-{cli_args[0]}.json").write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
