"""Record the ``steps-paper`` reference rows from the current source.

Usage::

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/steps-paper.json``: the rows of Fig 11,
Fig 12a and Fig 12b at their paper defaults.  The benchmark compares
every run's rows with this file, so re-record it only when a change is
meant to alter those simulated results.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import REFERENCE_DIR, Context, run_steps_paper  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as scratch:
        ctx = Context(scratch)
        figures = run_steps_paper(ctx)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, "steps-paper.json")
    with open(path, "w") as fh:
        json.dump(figures, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
