"""``python -m ybverify.cli`` with the tracer installed, for the traced run.

    python perfbench/traced_cli.py SPANS_FILE <ybv arguments...>

Imports every layer, wraps it (see ``spans.Tracer``), runs ``main`` in this
fresh interpreter so that every cache fills inside the spans, and writes the
spans to SPANS_FILE before exiting with main's code.  Exits with
``spans.INSTALL_FAILED`` when a layer cannot be wrapped.
"""

import sys

import ybverify.cli

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    spans.import_layers()
    tracer = spans.Tracer()
    try:
        tracer.install()
    except spans.InstallError as exc:
        print(f"traced_cli: {exc}", file=sys.stderr)
        return spans.INSTALL_FAILED
    try:
        code = ybverify.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
