"""Every public top-level function and class of the package has a caller:
code in the package, the benchmark's traced run, or an acceptance test that
uses it as an independent oracle or measurement.  The oracles reach none of
the production paths they certify.  No module re-opens an array for writing
once it has been frozen.  In ``encoder`` one layer loop serves every batched
forward pass.  In ``contrastive`` one cached index enumerates the negative
subsets and one function adds the anchors' mean losses, and
back-propagation yields each layer's gradient as two factors and takes no
buffer: no function there takes a ``scratch`` or ``out`` parameter.  In
``trainer`` one step function, ``gd_step``, takes the gradients and the
step, and ``train`` calls it for every record.  In ``monitors`` only
``_verdict`` fits a line, no probe builds a shifted copy of the weights,
every solver tolerance is a named constant, the gradient probe reads its
norms from ``gd_step``'s record, no probe builds a gradient set with
``grad_params``, and each fitted probe runs one configuration that no
caller can change: no public function takes a sweep, a direction count or a
list of widths."""

import ast
import functools
import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "contrast_lab"
TRACED = {(module.rsplit(".", 1)[1], attr.split(".")[0])
          for module, attr, _, _ in runpy.run_path(str(REPO / "bench" / "tracer.py"))["TARGETS"]}
# Used only by tests, on purpose.
ORACLES = {
    "enumerate_subsets",  # hand-rolled subset enumerator behind criterion 3
    "forward_trace",      # one-sample forward pass, the reference for forward_batch
    "backprop_matrix",    # per-sample Jacobian chain of the reverse-accumulation oracle
    "descent_check",      # criterion 8's per-step descent measurement
}


@functools.cache
def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _public_names() -> list[tuple[str, str]]:
    return [(module, node.name)
            for module, tree in _modules().items() if module != "__init__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


@pytest.mark.parametrize("module, name", _public_names())
def test_public_name_has_a_caller(module, name):
    if name in ORACLES or (module, name) in TRACED:
        return
    callers = [
        f"{other}:{getattr(node, 'name', node.lineno)}"
        for other, tree in _modules().items() if other != "__init__"
        for node in tree.body
        if not (other == module and getattr(node, "name", None) == name)
        and name in _used_names(node)
    ]
    assert callers, f"{module}.{name} is reached only from tests"


# The reference paths and the production names they must not reach.
INDEPENDENT = {"encoder": ("forward_trace", "backprop_matrix"),
               "oracle": ("fd_gradient", "enumerate_subsets")}
PRODUCTION = {"_forward", "forward_batch", "backward_batch", "_layer_factors", "_gradients",
              "grad_params", "loss_and_vectors"}


@pytest.mark.parametrize("module, name", [(m, f) for m, fs in INDEPENDENT.items() for f in fs])
def test_oracle_shares_no_code_with_what_it_certifies(module, name):
    (node,) = [n for n in _modules()[module].body
               if isinstance(n, ast.FunctionDef) and n.name == name]
    assert not _used_names(node) & PRODUCTION, f"{module}.{name} reaches production code"


def test_no_module_reopens_frozen_arrays():
    reopened = [
        f"{module}.py:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant) and node.value.value is True
        and any(isinstance(t, ast.Attribute) and t.attr == "writeable" for t in node.targets)
    ]
    assert not reopened, f"writeable = True at {reopened}"


def test_one_layer_loop_computes_relu_masks():
    # a ReLU mask is a ``>= 0.0`` comparison; forward_trace is the reference
    masking = {node.name for node in _modules()["encoder"].body
               if isinstance(node, ast.FunctionDef)
               for cmp in ast.walk(node) if isinstance(cmp, ast.Compare)
               and any(isinstance(op, ast.GtE) for op in cmp.ops)
               and any(isinstance(c, ast.Constant) and c.value == 0.0 for c in cmp.comparators)}
    assert masking == {"_forward", "forward_trace"}, f"ReLU masks computed in {sorted(masking)}"


def test_one_step_function_in_the_trainer():
    # gd_step makes every record and takes every step; train calls it
    body = {node.name: _used_names(node) for node in _modules()["trainer"].body
            if isinstance(node, ast.FunctionDef)}
    for name in ("_gradients", "_norms_and_step"):
        users = sorted(f for f, used in body.items() if name in used)
        assert users == ["gd_step"], f"{name} referenced from {users}"
    assert "gd_step" in body["train"]


def test_one_subset_enumeration_and_one_ordered_mean():
    # every exact and table gather reads _subset_index; one cumsum adds the
    # anchors' mean losses in order
    def users(name, modules):
        return [f"{module}.{node.name}" for module in modules
                for node in ast.walk(_modules()[module])
                if isinstance(node, ast.FunctionDef) and name in _used_names(node)]

    assert users("combinations", ["contrastive"]) == ["contrastive._subset_index"]
    assert users("cumsum", sorted(_modules())) == ["contrastive._anchor_mean"]


def test_gradient_probe_reads_the_step_record():
    # one path from a gradient to its norm: the gradient probe fits gd_step's
    # record, and no probe builds a gradient set (the smoothness probe forms
    # one layer at a time from its factors)
    body = {getattr(node, "name", node.lineno): _used_names(node)
            for node in _modules()["monitors"].body}
    users = sorted(str(name) for name, used in body.items() if "grad_params" in used)
    assert not users, f"grad_params referenced from {users}"
    assert "gd_step" in body["gradient_bound_probe"]


def test_back_propagation_takes_no_buffer():
    # the layer factors leave every buffer to their consumers
    buffered = [f"{node.name}({arg.arg})" for node in ast.walk(_modules()["contrastive"])
                if isinstance(node, ast.FunctionDef)
                for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if arg.arg in ("scratch", "out")]
    assert not buffered, f"contrastive functions take {buffered}"


def test_probes_build_no_shifted_weights():
    # the probes read perturbed passes from encoder.forward_shifted
    assert "shifted" not in _used_names(_modules()["monitors"])


def test_only_verdict_fits_in_monitors():
    fitting = [getattr(node, "name", node.lineno) for node in _modules()["monitors"].body
               if "fit_loglog" in _used_names(node)]
    assert fitting == ["_verdict"], f"fit_loglog referenced from {fitting}"


def test_monitors_name_every_solver_tolerance():
    # CHAIN_TOL and DIRECTION_TOL are stated once, beside their accuracy
    literal = [node.lineno for node in ast.walk(_modules()["monitors"])
               if isinstance(node, ast.keyword) and node.arg == "tol"
               and isinstance(node.value, ast.Constant)]
    literal += [node.lineno for node in ast.walk(_modules()["monitors"])
                if isinstance(node, ast.FunctionDef)
                for arg, default in zip(node.args.args[::-1], node.args.defaults[::-1])
                if arg.arg == "tol" and isinstance(default, ast.Constant)]
    assert not literal, f"literal tol at monitors.py lines {literal}"


def test_probes_take_no_sweep():
    # SMOOTHNESS_RHOS, PERTURBATION_OMEGAS and their direction counts are the
    # calibrated configurations, and the gradient probe's widths follow from the
    # shape by GRADIENT_WIDTH_RATIO; probe and the acceptance criteria run the same
    swept = [f"{node.name}({arg.arg})" for node in _modules()["monitors"].body
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
             for arg in node.args.args + node.args.kwonlyargs
             if arg.arg in ("rhos", "omegas", "n_directions", "ms")]
    assert not swept, f"public monitors functions take {swept}"
