"""Set-up time in a fresh process: import spectralab, parse scenarios, build charts.

Reads a JSON list of scenario texts on stdin and prints the seconds taken.
``run.py`` starts this script several times per run and reports the median.
"""

import json
import sys
import time
from pathlib import Path

texts = json.load(sys.stdin)
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from spectralab.reporting import build_chart, parse_config  # noqa: E402

for text in texts:
    build_chart(parse_config(text))
print(time.perf_counter() - start)
