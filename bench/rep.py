"""One repetition of a workload, in a fresh interpreter.

Usage: python3 rep.py SPEC.json

SPEC holds the source directory, the working directory, the CLI argv
lists, the repetition id, whether to trace, and where to write the result.
The calls go through `specdist.cli.main` one after another.  Their stdout
and stderr go to this process's fd 1 and fd 2, which the parent points at
files; the result records each call's byte range in them.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def _offset(stream, fd: int) -> int:
    stream.flush()
    return os.lseek(fd, 0, os.SEEK_CUR)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    started = perf_counter()
    import specdist.cli
    import_s = perf_counter() - started

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["rep"])
        tracer.install()

    try:
        from specdist.simulator import SimConfig

        warmup = SimConfig().warmup
    except (ImportError, AttributeError):
        warmup = None

    os.chdir(spec["workdir"])
    calls = []
    for argv in spec["calls"]:
        out0, err0 = _offset(sys.stdout, 1), _offset(sys.stderr, 2)
        start = perf_counter()
        code = specdist.cli.main(argv)
        end = perf_counter()
        calls.append({"argv": argv, "code": code, "start": start, "end": end,
                      "stdout": [out0, _offset(sys.stdout, 1)],
                      "stderr": [err0, _offset(sys.stderr, 2)]})

    result = {
        "import_s": import_s,
        "wall_s": calls[-1]["end"] - calls[0]["start"],
        "default_warmup": warmup,
        "calls": calls,
    }
    if tracer is not None:
        layers, absent = tracer.summary(import_s, calls)
        result.update(layers=layers, absent=absent, spans=tracer.spans)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
