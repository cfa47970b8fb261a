"""The package's public surface: module layering and exported names."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgcnn
from mgcnn import network, training
from mgcnn.data import ModelFile
from mgcnn.grid import TransferPair
from mgcnn.multiscale import ResolutionPyramid
from mgcnn.stencils import CoarsenMap, StencilBank

SRC = Path(__file__).resolve().parent.parent / "src"
# every module that declares __all__
MODULES = ["mgcnn", "mgcnn.cli", "mgcnn.data", "mgcnn.grid", "mgcnn.multiscale",
           "mgcnn.network", "mgcnn.stencils", "mgcnn.training"]

# Single-image and single-stencil wrappers replaced by the array-level API,
# test-only helpers whose checks moved into the tests, and single-use
# helpers folded into their one caller.
REMOVED = {
    "mgcnn.grid": ["Image", "restrict_image", "prolong_image", "gaussian_blur",
                   "verify_rp_identity", "_require_even"],
    "mgcnn.stencils": ["Stencil", "Symbol", "conv_apply", "coarsen_stencil", "refine_stencil"],
    "mgcnn.network": ["Trajectory", "gradient", "classify", "forward_propagate",
                      "_reg_parts", "offset_loss"],
    "mgcnn.multiscale": ["_initial_loss"],
    "mgcnn.training": ["StepRule", "_laplacian_flat", "_hessian_matvec"],
    "mgcnn.cli": ["_step_rule"],
    "mgcnn": ["Image"],
}


def test_network_does_not_load_training():
    code = "import sys, mgcnn.network; print('mgcnn.training' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"{name}.{attr}"


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    mod = importlib.import_module(name)
    for attr in REMOVED[name]:
        assert not hasattr(mod, attr), f"{name}.{attr}"
        assert attr not in getattr(mod, "__all__", ())


def test_removed_methods_are_gone():
    assert not hasattr(StencilBank, "stencil")
    # test-only constructors and fields that nothing reads
    assert not hasattr(StencilBank, "identity")
    assert not hasattr(StencilBank, "zeros")
    assert "version" not in ModelFile.__dataclass_fields__
    assert "blur_sigma" not in ResolutionPyramid.__dataclass_fields__
    assert not hasattr(CoarsenMap, "apply")
    assert not hasattr(CoarsenMap, "solve")
    # state that is recomputed where it is used
    assert "_inverse" not in CoarsenMap.__dataclass_fields__
    assert not hasattr(TransferPair.constant_average(), "gamma")
    assert not hasattr(network, "_layer")
    assert not hasattr(training, "_laplacian_entries")
    assert not hasattr(training, "_take_prop_step")
    # single-use indirections: callers build the value directly
    assert not hasattr(network.Activation, "from_name")
    # read nowhere
    assert not hasattr(network.Classifier, "channels")
    assert "confusion" not in training.EvalReport.__dataclass_fields__
    assert "truncation_mass" not in CoarsenMap.__dataclass_fields__


def test_penalty_has_one_home():
    for attr in ("RegConfig", "RegGrads", "reg_value_and_grad"):
        assert getattr(training, attr) is getattr(network, attr)


@pytest.mark.parametrize("path", sorted((SRC / "mgcnn").glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = {name: line for name, line in imported.items() if name not in used | exported}
    assert not unused, f"{path.name}: unused imports {unused}"
