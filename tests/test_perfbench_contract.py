"""The benchmark's outside-in tracer must keep finding what it wraps.

perfbench/tracer.py replaces package functions at their caller-visible
module attributes.  A rename or deletion of one of them should fail here,
not in a traced benchmark run.
"""

import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(tracer):
    return [(name, module, attr) for name, _, sites in tracer.PATCHES
            for module, attr in sites]


def test_every_patch_site_resolves_to_a_callable(tracer):
    for name, module, attr in _sites(tracer):
        assert callable(getattr(module, attr, None)), \
            f"{name}: {module.__name__}.{attr} is missing or not callable"


def test_tracer_restores_every_original(tracer):
    originals = [(module, attr, getattr(module, attr)) for _, module, attr in _sites(tracer)]
    with tracer.Tracer():
        for module, attr, original in originals:
            assert getattr(module, attr) is not original
    for module, attr, original in originals:
        assert getattr(module, attr) is original
