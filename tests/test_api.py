"""The package's public surface: module layering and exported names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgcnn
from mgcnn import network, training
from mgcnn.data import ModelFile, save_model
from mgcnn.grid import Grid2D, TransferPair
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


# --- scipy's solvers load on first use -----------------------------------------

SOLVERS = ("scipy.linalg", "scipy.sparse.linalg")
# Prints which of scipy's solver packages the process has loaded.
REPORT = "import json, sys; print(json.dumps({n: n in sys.modules for n in %r}))" % (SOLVERS,)


def loaded_solvers(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter and report the solvers it loaded."""
    out = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT}", *args],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(out.stdout.splitlines()[-1])


def test_scipy_is_reached_through_the_package_global():
    # perfbench's tracer swaps training's global ``scipy`` for a view that
    # wraps the solvers; a submodule import would bind a name around it.
    for path in sorted((SRC / "mgcnn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.startswith("scipy.")], f"{path.name}:{node.lineno}"


def test_cli_import_loads_no_solver():
    assert loaded_solvers("import mgcnn.cli") == {name: False for name in SOLVERS}


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.bin"
    params = network.random_network_params(channels=2, num_layers=2, final_time=1.0, seed=1)
    save_model(str(path), ModelFile(params, network.zero_classifier(Grid2D(8, 8, 1.0), 2, 2)))
    return path


CLI_COMMANDS = {
    "inspect": ["inspect", "--model", "{model}"],
    "adapt-coarsen": ["adapt", "--model", "{model}", "--direction", "coarsen", "--out", "{tmp}/c"],
    "adapt-refine": ["adapt", "--model", "{model}", "--direction", "refine", "--out", "{tmp}/r"],
    "help": ["--help"],
    "refused-config": ["train", "--config", "{tmp}/bad.cfg", "--out", "{tmp}/t"],
}
CLI_EXIT = {"help": 0, "refused-config": 2}


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_non_training_commands_load_no_solver(command, saved_model, tmp_path):
    (tmp_path / "bad.cfg").write_text("outer_iters = -1\n")
    argv = [a.format(model=saved_model, tmp=tmp_path) for a in CLI_COMMANDS[command]]
    code = ("import sys\nfrom mgcnn.cli import main\n"
            "try:\n    status = main(sys.argv[1:])\nexcept SystemExit as exc:\n    status = exc.code\n"
            f"assert status == {CLI_EXIT.get(command, 0)}, status")
    assert loaded_solvers(code, *argv) == {name: False for name in SOLVERS}


# One Newton call per route, as the process's first use of scipy: classes,
# grid side and lambda_w, chosen so that the route comes from the sizes alone.
NEWTON_CALL = """
import numpy as np, sys
from mgcnn.grid import Grid2D
from mgcnn.network import RegConfig, zero_classifier
from mgcnn import training
L, side, lam = {L}, {side}, {lam}
rng = np.random.default_rng(0)
features = rng.normal(size=(20, 1, side, side))
clf = zero_classifier(Grid2D(side, side, 1.0), 1, L)
assert training._newton_route(20, clf.weights.shape, lam) == {route!r}
assert "scipy.linalg" not in sys.modules and "scipy.sparse.linalg" not in sys.modules
result = training.newton_classifier_step(features, np.arange(20) % L, clf, RegConfig(lambda_w=lam), 2)
assert result.objectives[-1] < np.log(L)  # below the zero classifier's objective
"""
ROUTES = {"sample": (2, 8, 0.1), "contrast": (2, 8, 0.0), "cg": (10, 10, 0.0)}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_newton_routes_load_their_solvers_on_first_use(route):
    L, side, lam = ROUTES[route]
    report = loaded_solvers(NEWTON_CALL.format(L=L, side=side, lam=lam, route=route))
    # older scipy releases load scipy.sparse.linalg with scipy.linalg itself
    with_linalg = loaded_solvers("import scipy.linalg")["scipy.sparse.linalg"]
    assert report == {"scipy.linalg": True, "scipy.sparse.linalg": route == "cg" or with_linalg}


def test_contrast_basis_loads_scipy_linalg_on_first_use():
    code = ("import numpy as np\nfrom mgcnn import training\n"
            "Q = training._contrast_basis(4)\n"
            "assert np.allclose(Q.T @ Q, np.eye(3)) and np.allclose(Q.sum(axis=0), 0.0)")
    assert loaded_solvers(code)["scipy.linalg"]
