"""Set-up time of one workload in a fresh interpreter: importing cyclemod
and building the workload's inputs.  Prints the seconds it took.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - start)
