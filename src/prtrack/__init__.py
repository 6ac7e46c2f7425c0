"""Probabilistic center/box regression on grids, with a synthetic tracking benchmark.

The package models a target state as a conditional density obtained by
exponentiating and normalizing a learned score grid.  Training minimizes
divergence-style objectives (or squared-error baselines) and the online
solver takes closed-form steepest-descent steps.  A two-stage tracker and
a CLI harness exercise everything end to end on synthetic sequences.
Public names are imported from their modules (prtrack.tracker, ...).
"""

__version__ = "0.1.0"
