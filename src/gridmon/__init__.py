"""Distribution-grid monitoring workbench.

Trains neural-network monitors that estimate bus voltages and line loadings
from sparse measurements, and benchmarks them against weighted-least-squares
state estimation over a catalog of normal-operation, bad-data and
topology-error test cases.
"""

from .grid import (Bus, GridModel, GridView, IsolationError, Line, Switch, Unit,
                   apply_switch_config, build_admittance, load_bundled, load_grid)
from .powerflow import InjectionSet, PfSolution, PowerFlowError, solve_pf
from .scenarios import (DEFAULT_AXES, FIVE_AXES, Scenario, ScenarioAxis,
                        enumerate_tuples, expand, generate_set)
from .measurements import (FaultInjection, MeasurementSet, MeasurementSpec,
                           accuracy_to_sd, make_spec, simulate)
from .ann import (AnnArchitecture, AnnModel, TrainConfig, hidden_size, init_model,
                  train)
from .wls import PseudoSet, build_pseudo, estimate
from .evaluation import (C1, C2, Criterion, EvalResult, TestCase, load_catalog,
                         run_test_case)
from .tuning import tune_architecture

__version__ = "0.1.0"
