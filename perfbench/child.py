"""One fresh process of the benchmark: a set-up measurement or one CLI call.

    python3 perfbench/child.py setup ORDER [ORDER ...]
    python3 perfbench/child.py call TRACE RUN_ID -- ARGV...

``setup`` times importing superdenom.cli and building one TwistClass per
order.  ``call`` runs ``superdenom.cli.main(ARGV)`` once with its report
captured, traced when TRACE is 1.  Either prints one JSON object as the
last line of standard output.  The package is imported from the checkout's
``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    from superdenom import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"superdenom imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def setup(orders: list[int]) -> dict:
    start = time.perf_counter()
    _import_cli()
    from superdenom.mult import TwistClass
    for order in orders:
        TwistClass(order)
    return {"setup_s": time.perf_counter() - start}


def call(traced: bool, run_id: str, argv: list[str]) -> dict:
    cli = _import_cli()
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed call, reported to the parent
            traceback.print_exc()
            rc = "exception"
        wall = time.perf_counter() - start
    result = {"rc": rc, "wall_s": wall, "report": out.getvalue()}
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main(args: list[str]) -> int:
    if args[:1] == ["setup"]:
        result = setup([int(a) for a in args[1:]])
    elif args[:1] == ["call"] and args[3:4] == ["--"]:
        result = call(args[1] == "1", args[2], args[4:])
    else:
        print(f"usage: see {__file__}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
