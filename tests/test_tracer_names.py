"""The benchmark's tracer (perfbench/tracer.py) wraps program functions by
name, and its install() fails on a name the program no longer defines.
These tests read its name tables, loading the file by path: loading it
only defines the tables, and installs nothing."""

import importlib.util
import pathlib

from polarpart import adg, cli, gf, graphs, partitions, verify

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {"gf": gf, "graphs": graphs, "adg": adg, "partitions": partitions,
           "verify": verify, "cli": cli}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_is_a_module_attribute():
    tracer = _tracer()
    missing = [f"{mod}.{name}" for mod, names in tracer.SPANS.items()
               for name in names if not hasattr(MODULES[mod], name)]
    assert missing == []


def test_every_hot_and_counted_name_is_defined_on_its_class():
    # install() wraps vars(cls)[name]: an inherited method would not do
    tracer = _tracer()
    missing = [f"{mod}.{cls}.{name}" for table in (tracer.HOT, tracer.COUNTED)
               for (mod, cls), names in table.items()
               for name in names if name not in vars(getattr(MODULES[mod], cls))]
    assert missing == []
