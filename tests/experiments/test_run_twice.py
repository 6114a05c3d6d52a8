"""Two runs of an experiment in one process give the same results and metrics.

A run must not read state an earlier run left behind: module-level
caches, RNG state or counters that leak out of ``metrics.isolated()``.
"""

import json

import pytest

from repro.experiments.registry import ExecutionContext, experiment_names, get_experiment
from repro.obs import metrics

#: small parameters, so each experiment runs in about a second
SMALL = {
    "availability": {"cables": 2, "years": 0.2},
    "chaos": {"days": 0.5},
    "reactive": {"days": 0.5},
    "study": {"cables": 2, "years": 0.2},
    "testbed": {"changes": 20},
    "throughput": {"scales": (1.0,)},
    "whatif": {"tickets": 8},
}


def _run(name):
    experiment = get_experiment(name)
    params = {**experiment.defaults_dict(), **SMALL.get(name, {})}
    with metrics.isolated() as registry:
        result = experiment.run(ExecutionContext(workers=1, cache=False), **params)
    return json.dumps(result, sort_keys=True), registry.counters(), registry.gauges()


def test_small_parameters_name_experiments():
    assert set(SMALL) <= set(experiment_names())


@pytest.mark.parametrize("name", experiment_names())
def test_second_run_matches_first(name):
    assert _run(name) == _run(name)
