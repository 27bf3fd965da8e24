"""Every name the benchmark tracer wraps still exists in the package.

``bench/tracing.py`` replaces module functions and the map classes'
``values`` by name; a name that is gone would surface only in a traced
benchmark run.  This reads the tracer's tables and checks them in well
under a second, naming what is missing.
"""

import importlib.util
from pathlib import Path

import loewner_lab

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_tracing()
    missing = [f"{module}.{name}" for module, name, _ in tracing._FUNCTIONS
               if not callable(getattr(getattr(loewner_lab, module, None), name, None))]
    assert not missing, f"traced functions missing from loewner_lab: {missing}"


def test_every_traced_map_class_defines_its_own_values():
    tracing = load_tracing()
    missing = [name for name in tracing._MAP_CLASSES
               if "values" not in vars(getattr(loewner_lab.carath, name, object))]
    assert not missing, f"traced map classes without their own values: {missing}"
