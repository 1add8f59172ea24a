"""Multi-objective GA-based I/O scheduling (Section III-B of the paper).

The search optimises the job start times ``kappa_i^j`` of one per-device
partition for two objectives simultaneously — ``Psi`` (fraction of exactly
timing-accurate jobs) and ``Upsilon`` (normalised total quality) — subject to
Constraint 1 (release/deadline windows) and Constraint 2/2* (non-overlapping
executions), using an NSGA-II style evolutionary algorithm with a
reconfiguration (repair) function.
"""

from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.nsga2 import NSGA2
from repro.scheduling.ga.reconfiguration import evaluate_batch
from repro.scheduling.ga.scheduler import GAConfig, GAScheduler

__all__ = ["GAConfig", "GAScheduler", "GAProblem", "NSGA2", "evaluate_batch"]
