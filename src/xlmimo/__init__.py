"""XL-MIMO downlink RZF precoding with iterative matrix-inversion solvers.

Importing the package pins BLAS to one thread, before numpy loads: the
simulator solves thousands of 16x16 and 32x32 systems, where BLAS threads
cost far more in synchronization than they gain.  Parallelism comes from
trial processes (``run.workers``, every Monte-Carlo scenario), which
inherit the setting.  An explicit setting in the environment wins; a caller
that imports numpy before this package must pin its own BLAS.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .channel import ChannelRealization, build_correlation, path_loss
from .config import ExperimentConfig, apply_overrides, parse_config
from .errors import (AssemblyError, ConfigurationError, DegenerateChannelError,
                     GeometryInfeasibleError, NotHpdError, XlMimoError)
from .experiments import run_experiment
from .flops import FlopModel, flop_model, flops_direct, flops_jacpcg
from .geometry import ArrayGeometry, build_geometry, drop_users, sample_vr
from .linsolve import (HpdSystem, SolverOutcome, cg_solve, direct_solve,
                       gs_solve, jacpcg_solve, jor_solve, solve)
from .metrics import (BerReport, LinkReport, ber_montecarlo, convergence_trace,
                      sinr_eq9, sum_se)
from .precoder import BlockPrecoder, build_precoder, gram_regularized
from .scenario import Scenario, TrialDraw, build_scenario, draw_trial
from .seeding import seed_stream
