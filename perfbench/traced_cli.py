"""Run one ``shb`` CLI command with every public function traced.

Usage: python perfbench/traced_cli.py SPANS_JSON RUN_ID -- <shb arguments>

``src`` must be on PYTHONPATH.  The spans are written to SPANS_JSON
after the command returns; the exit code is the command's own.
"""

import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RUN_ID -- <shb arguments>")
    import shb.cli

    tracer = Tracer(run_id)
    tracer.install("shb")
    try:
        return shb.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
