"""A traced `treeval.cli` request: time the import, install the tracer's
wrappers, call `treeval.cli.main`, and write the spans to a JSON file.

    python3 perfbench/cli_child.py SPANS.json <treeval CLI arguments...>
"""

import time

_IMPORT_START = time.perf_counter()
import treeval.cli  # noqa: E402

_IMPORT_END = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import IMPORT_SPAN, Tracer, install  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add_span(IMPORT_SPAN, _IMPORT_START, _IMPORT_END)
    install(tracer)
    tracer.active = True
    try:
        code = treeval.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
