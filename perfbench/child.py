"""One fresh bifield process: timed import, config load and CLI commands.

    python3 child.py SPEC.json

SPEC holds: src (directory holding the bifield package), config (path or
null), commands (list of argv lists for bifield.cli.main), setup_only,
trace, spans (path for the span array, or null) and result (path of the
JSON this process writes). Only the standard library is imported before
the timed import, so setup time covers numpy and scipy as a user pays it.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import bifield.cli as cli
    t1 = time.perf_counter()
    if spec["config"] is not None:
        cli.load_config(spec["config"])
    t2 = time.perf_counter()

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"bifield imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"import_s": t1 - t0, "parse_s": t2 - t1, "setup_s": t2 - t0}

    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        codes = []
        captured = io.StringIO()
        cpu0 = time.process_time()
        w0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            for argv in spec["commands"]:
                codes.append(cli.main(argv))
        w1 = time.perf_counter()
        cpu1 = time.process_time()
        result.update(run_s=w1 - w0, cpu_s=cpu1 - cpu0, exit_codes=codes,
                      stdout=captured.getvalue())
        if tracer is not None:
            result["trace"] = tracer.summary()
            if spec["spans"]:
                tracer.save_spans(spec["spans"])

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
