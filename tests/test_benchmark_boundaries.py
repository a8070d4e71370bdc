"""The benchmark's tracer rebinds named celab functions from outside
(`perfbench/tracer.py`). A refactor that drops or renames one of those names
should fail here, not only in the benchmark's own tests."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.tracer import BOUNDARIES  # noqa: E402


@pytest.mark.parametrize(
    "module_name, attr", sorted({(module, attr) for module, attr, _ in BOUNDARIES})
)
def test_every_traced_boundary_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"


def test_forward_takes_params_and_current_states_first():
    # the tracer's flop count reads args[0] as the params and args[1] as the
    # current states (`perfbench.tracer._forward_info`)
    import celab.policy

    names = list(inspect.signature(celab.policy.forward).parameters)
    assert names[:3] == ["params", "current", "previous"]
