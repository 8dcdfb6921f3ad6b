"""Run the convexring CLI with tracing installed.

    traced_cli.py SPANS_JSON <convexring CLI arguments...>

Times the import of ``convexring.cli``, installs the spans of
``tracing.py``, runs ``convexring.cli.main`` with the remaining arguments,
writes ``{"import_s": ..., "spans": [...]}`` to SPANS_JSON and exits with
the CLI's exit code.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def main() -> int:
    import json

    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import convexring.cli as cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    Path(spans_path).write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
