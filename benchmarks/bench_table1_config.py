"""Table I — system model parameters (configuration self-check).

Regenerates the parameter table and builds a cold machine, verifying
the modeled hardware matches the paper's Table I exactly.
"""

from repro.common.params import typical_params
from repro.harness.experiments import table1_parameters
from repro.harness.systems import get_system
from repro.sim.machine import Machine


def test_table1_parameters(publish):
    params = typical_params()
    machine = Machine(params, get_system("Baseline"), [[] for _ in range(32)])
    assert params.num_cores == 32
    assert machine.topology.num_tiles == 32
    assert params.l1.num_sets == 128 and params.l1.assoc == 4
    assert params.llc.num_sets == 8192 and params.llc.assoc == 16
    publish("table1_config", table1_parameters(params))
