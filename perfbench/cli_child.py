"""One `cyclemod` command with the layer wrappers installed.

    PYTHONPATH=src python3 -X importtime perfbench/cli_child.py SUMMARY <cyclemod arguments>

Behaves as the `cyclemod` console script does, and writes the tracer's
summary as JSON to SUMMARY when the command exits.
"""

import json
import sys

import tracing
from cyclemod.cli import main

if __name__ == "__main__":
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer):
            main(args=sys.argv[2:], prog_name="cyclemod")
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.summary(), fh)
