"""Time one cold set-up of a workload in a fresh interpreter.

Usage: setup_probe.py WORKLOAD SEED TINY(0|1).  Prints the seconds from the
first import of numpy and airsplit through dataset generation, channel
sampling and system assembly.
"""
import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports numpy and airsplit)

workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
print(repr(time.perf_counter() - t0))
