"""One benchmark run: a closed loop of ``udim`` commands in one fresh interpreter.

Usage: python3 loop.py COMMANDS_JSON RESULTS_JSONL STOP_AFTER_S [SPANS_JSON]

COMMANDS_JSON holds a list of argument lists.  Each is passed to
``udim.cli.main`` in turn, the next only after the previous one returned,
and one line per command is appended to RESULTS_JSONL: its wall time, exit
code and stdout.  No command is issued after STOP_AFTER_S.  With SPANS_JSON
the layer functions are wrapped first (see ``tracer.py``) and the spans are
written there at the end.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def main() -> int:
    commands_path, results_path, stop_after_s = sys.argv[1:4]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import udim.cli

    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    stop_at = time.perf_counter() + float(stop_after_s)
    with open(results_path, "w", encoding="utf-8") as out:
        for argv in commands:
            if time.perf_counter() > stop_at:
                break
            buffer = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buffer):
                    code = udim.cli.main(argv)
            except Exception:  # the loop must go on; the gate counts the failure
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
            out.write(json.dumps({"wall": wall, "code": code, "stdout": buffer.getvalue()}))
            out.write("\n")
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
