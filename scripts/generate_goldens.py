#!/usr/bin/env python3
"""Regenerate the golden figure CSVs and the demo scan CSV used by the
regression tests.

Run from the repository root after an intentional change to the curve
pipeline, then review the diff before committing:

    python scripts/generate_goldens.py
"""
import pathlib
import sys

from qheine.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def run():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for number in (1, 2, 3, 4, 5):
        out = GOLDEN_DIR / f"figure{number}.csv"
        rc = main(["figure", str(number), "--format", "csv", "--out", str(out)])
        if rc != 0:
            return rc
        print(f"wrote {out}")
    out = GOLDEN_DIR / "demo_scan.csv"
    config = GOLDEN_DIR.parent.parent / "scripts" / "demo_scan.cfg"
    rc = main(["scan", "--config", str(config), "--threads", "1", "--out", str(out)])
    if rc == 0:
        print(f"wrote {out}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
