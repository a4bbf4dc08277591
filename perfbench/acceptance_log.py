"""Read per-criterion wall times from an acceptance log.

The acceptance suite prints ``PASS criterion N: <description> [x.ys]`` once
per criterion when pytest runs with ``-s``.  This reader parses an existing
log; it never runs the suite, and its numbers are a side record, not gated.

    python3 perfbench/acceptance_log.py test_output.txt > times.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_PASS = re.compile(r"^PASS criterion (\d+): (.*) \[(\d+(?:\.\d+)?)s\]\s*$")


def parse(text: str) -> dict[int, dict]:
    """Criterion number -> ``{"description", "seconds"}`` for every PASS line."""
    out = {}
    for line in text.splitlines():
        m = _PASS.match(line)
        if m:
            out[int(m.group(1))] = {"description": m.group(2), "seconds": float(m.group(3))}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("log", help="pytest -s output holding PASS criterion lines")
    args = parser.parse_args(argv)
    record = parse(Path(args.log).read_text(encoding="utf-8", errors="replace"))
    if not record:
        print(f"no PASS criterion lines in {args.log}", file=sys.stderr)
        return 1
    print(json.dumps({str(k): v for k, v in sorted(record.items())}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
