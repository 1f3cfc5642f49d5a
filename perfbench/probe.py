"""Set-up probe: import patternkit.cli in a fresh process and parse inputs.

Usage: python3 perfbench/probe.py '<json list of [parser, path] pairs>'
(with src on PYTHONPATH).  Answers nothing; prints the in-process import and
parse times as one JSON object.  The caller times the whole process.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import patternkit.cli  # noqa: E402,F401
t1 = time.perf_counter()
from patternkit import io as pio  # noqa: E402

for parser, path in json.loads(sys.argv[1]):
    getattr(pio, parser)(Path(path).read_text())
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
