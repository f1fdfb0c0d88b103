"""The benchmark must keep finding the package names it uses.

perfbench/tracer.py replaces package functions at their caller-visible
module attributes, and perfbench/workloads.py and run.py call the package
through its module attributes.  A rename or deletion of one of them should
fail here, not in a benchmark run.
"""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACER_PATH = os.path.join(PERFBENCH, "tracer.py")


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


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_every_package_name_the_benchmark_uses_resolves(script):
    with open(os.path.join(PERFBENCH, script), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {}  # the name a topicxfer module is bound to -> the module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "topicxfer":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"topicxfer.{alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("topicxfer."):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    uses = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert uses, f"{script} uses no topicxfer module attribute"
    missing += [f"{name}.{attr}" for name, attr in sorted(uses)
                if not hasattr(modules[name], attr)]
    assert not missing, f"{script} uses names the package lacks: {missing}"


def test_pipeline_small_passes_its_own_output_check(tmp_path, monkeypatch):
    # the workload's paths are relative, so running it in tmp_path keeps the
    # checkout clean; its oracle catches a context or bundle change it cannot read
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    workload = importlib.import_module("workloads").PipelineSmall(1)
    workload.prepare()
    state = workload.setup()
    digests = []
    for _ in range(2):
        workload.clear()
        result, _ = workload.op(state)
        digests.append(workload.digest(result))
    assert workload.check(result) == []
    assert digests[0] == digests[1]
