import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import anosovlab
from anosovlab.cli import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(anosovlab.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"anosovlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def bench_module(name):
    """``bench/<name>.py``, imported from its file under a private name
    (registered first, as its dataclasses need)."""
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # bench/run.py --trace rebinds each TRACED name by looking it up in the
    # package; a renamed or deleted function breaks traced runs
    tracing = bench_module("tracing")
    missing = []
    for qualname in tracing.TRACED:
        module_name, attr = qualname.split(".")
        module = importlib.import_module(f"anosovlab.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(qualname)
    assert len(tracing.TRACED) == 15
    assert missing == []


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_answers_pass_their_check(seed):
    # the benchmark rejects a run whose answer drifts; this sees it first
    workloads = bench_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        x = workloads.fg_parameter(seed) if workload.uses_x else None
        rep = workload.build(x)
        answer = workload.answer(rep, workload.scan(rep))
        assert workloads.check_answer(workload, x, answer) == [], name


# Every value a caller can set: a new option or defaulted parameter must be
# added here by name, so it shows up as a deliberate edit.
CLI_OPTIONS = {
    "check": ["what", "--family", "--x", "--partition", "--rep", "--k", "--L",
              "--base-word", "--min-separation", "--out"],
    "collar": ["--family", "--x", "--partition", "--rep", "--k", "--L",
               "--out", "--format"],
    "construct": ["--family", "--x", "--partition", "--rep", "--out"],
    "fg-scan": ["--x-min", "--x-max", "--points", "--log-grid", "--out"],
    "gap-scan": ["--family", "--x", "--partition", "--rep", "--k", "--L",
                 "--out", "--format"],
    "sopq": ["--p", "--q", "--count", "--seed", "--entry-max", "--out"],
}

DEFAULTED_PARAMETERS = [
    "verification.hk_scan(min_separation)",
    "verification.ck_scan(min_separation)",
    "verification.check_projection_hyperconvexity(min_separation)",
]


def test_cli_options_are_exactly_the_listed_ones():
    found = {name: [p.opts[0] for p in command.params]
             for name, command in cli.commands.items()}
    assert cli.params == []
    assert found == CLI_OPTIONS


def test_defaulted_public_parameters_are_exactly_the_listed_ones():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"anosovlab.{name}")
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn):
                continue
            found += [f"{name}.{attr}({p.name})"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    assert found == DEFAULTED_PARAMETERS


def _dead_imports(path: Path) -> list:
    """Names ``path`` imports but never references nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if [getattr(t, "id", None) for t in targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_dead_imports():
    # the package's __init__ imports are its exports
    paths = [p for p in sorted((ROOT / "src" / "anosovlab").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert [dead for p in paths for dead in _dead_imports(p)] == []


def _scoped_nodes(path: Path):
    """(scope, node) of every node of the module at ``path``; the scope is
    the innermost enclosing function or class, as ``Class.method``, or ""
    at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                yield from visit(child, scope)
    yield from visit(ast.parse(path.read_text()), "")


def test_one_word_ball_model():
    # every eigendecomposition is the batched one of core_linalg._spectra,
    # and every word image the checks read is a row of their word ball
    src = ROOT / "src" / "anosovlab"
    eig = [f"{path.name}:{scope}" for path in sorted(src.glob("*.py"))
           for scope, node in _scoped_nodes(path)
           if isinstance(node, ast.Attribute) and node.attr == "eig"
           and ast.unparse(node.value) == "np.linalg"]
    assert eig == ["core_linalg.py:_spectra"]
    evaluate = [scope for scope, node in _scoped_nodes(src / "verification.py")
                if isinstance(node, ast.Name) and node.id == "evaluate"]
    assert evaluate == ["_WordBall._products"]


def test_one_spectrum_table():
    # a Spectrum is built only in core_linalg, as one table, so no module
    # holds a per-row record or tests a row for its NumericError
    src = ROOT / "src" / "anosovlab"
    built = [f"{path.name}:{scope}" for path in sorted(src.glob("*.py"))
             for scope, node in _scoped_nodes(path)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "Spectrum"]
    assert built == ["core_linalg.py:Spectrum.take", "core_linalg.py:_spectra"]
    tests = [ast.unparse(node)
             for _, node in _scoped_nodes(src / "verification.py")
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "isinstance"
             and "NumericError" in ast.unparse(node.args[1])]
    assert tests == []


def test_one_gap_rule():
    # every modulus-gap test reads core_linalg._no_gap, the only reader of
    # EIGEN_GAP_MIN (spectral re-exports the name in __all__)
    src = ROOT / "src" / "anosovlab"
    reads = [f"{path.name}:{scope}" for path in sorted(src.glob("*.py"))
             for scope, node in _scoped_nodes(path)
             if (isinstance(node, ast.Name) and node.id == "EIGEN_GAP_MIN"
                 and isinstance(node.ctx, ast.Load))
             or (isinstance(node, ast.Attribute)
                 and node.attr == "EIGEN_GAP_MIN")]
    assert reads == ["core_linalg.py:_no_gap"]


def test_one_triple_kernel():
    # every triple scan runs on verification._triple_scan; only the
    # single-item checks take one direct_sum_defect call per triple
    path = ROOT / "src" / "anosovlab" / "verification.py"
    callers = sorted({scope for scope, node in _scoped_nodes(path)
                      if isinstance(node, ast.Name)
                      and node.id == "direct_sum_defect"})
    assert callers == ["_triple_defect", "projection_triple_defect",
                       "sopq_model_triple_defect"]


def test_exact_defects_run_only_in_the_triple_kernel():
    # the exact SVD of a scan runs only on the triples whose certified
    # bracket can reach the running minimum or maximum
    path = ROOT / "src" / "anosovlab" / "verification.py"
    name = "_smallest_singular_values"
    callers = sorted({scope for scope, node in _scoped_nodes(path)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) == name})
    assert callers == ["_triple_extremes"]


def test_per_word_values_come_from_the_batched_kernels():
    # the scans read reference fixed points and eigenvalue values from the
    # word ball's batched tables; only the root-gap scan of two generators
    # per grid point calls a one-row function (EigenIdentityReport's
    # weight_period field is a stored name, not a read)
    path = ROOT / "src" / "anosovlab" / "verification.py"
    names = ("rp1_fixed_points", "length_functions", "weight_period",
             "eigenvalue_ratios")
    found = sorted({(node.id, scope) for scope, node in _scoped_nodes(path)
                    if isinstance(node, ast.Name) and node.id in names
                    and isinstance(node.ctx, ast.Load)})
    assert found == [("eigenvalue_ratios", "counterexample_scan")]


def _definitions(tree: ast.Module):
    """(name, node) of every module-level function, class or assigned name
    of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _unread(keep) -> list:
    """The module-level names of the package passing ``keep`` that no code
    of the package reads outside their own definition."""
    trees = {path.relative_to(ROOT): ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "anosovlab").glob("*.py"))}
    reads = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                reads.append((path, node.lineno, node.name))
    return [f"{path}:{node.lineno} {name}"
            for path, tree in trees.items()
            for name, node in _definitions(tree) if keep(name)
            and not any(read == name and not (
                where == path and node.lineno <= line <= node.end_lineno)
                for where, line, read in reads)]


def test_no_dead_private_names():
    # a private name the package never reads outside its own definition is
    # left over from deleted code
    assert _unread(lambda name: name.startswith("_")
                   and not name.startswith("__")) == []


def test_no_dead_constants():
    # so is an UPPER_CASE constant: a tolerance or setting nothing applies
    assert _unread(str.isupper) == []


def test_package_imports_no_scipy():
    # scipy is a test-only oracle: the package, its CLI and its checks run on
    # numpy alone, and importing scipy.linalg would double the start-up time
    code = ("import sys, anosovlab, anosovlab.cli, anosovlab.verification; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "[]"
