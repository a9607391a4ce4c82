"""What a fresh qec-cadence process does before its first computation.

Usage: python3 setup_probe.py <src dir> <config path>.  Imports numpy and
the package (which builds the code tables), builds the default ancilla
circuit, parses the config, then prints "ready".  The parent times the
process from its start to that line.
"""
import sys

sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401

from qec_cadence import cli  # noqa: E402
from qec_cadence.ancilla import default_circuit  # noqa: E402

default_circuit()
cli.load_config(sys.argv[2])
print("ready", flush=True)
