"""Tools for choosing how many gates to run between error-correction rounds.

The package pairs a closed-form second-order model of the logical X error
rate of a [[7,1,3]] block (with rounds skipped at a configurable
probability) with a bit-level Monte Carlo fault simulator, plus the
calibration layer that connects the two and a CLI for sweeps.
"""

__version__ = "0.1.0"
