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
from anosovlab import ball as word_ball
from anosovlab import verification
from anosovlab.cli import cli
from anosovlab.representations import (
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
)

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


def test_traced_names_count_calls_from_the_scans():
    # a traced name is rebound in every module holding it; the scans must
    # still call it through one of those, wherever their code lives
    with bench_module("tracing").Tracer() as tracer:
        verification.hk_scan(
            fuchsian_locus((5, 1), punctured_torus_reference()), 1, 2)
        verification.check_positively_ratioed(fg_rep(1), 1, 2)
        verification.linked_pairs(fg_rep(1), 2)
    calls = tracer.calls()
    assert calls["verification.BoundaryAtlas"] == 2
    assert calls["verification.linked_pairs"] == 1


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


# the modules the scans and checks run in: the word ball, the triple kernel
# and the scans themselves
SCAN_MODULES = ("ball.py", "triples.py", "verification.py")


def _scan_nodes():
    """(where, node) of every node of the scan modules, where being
    ``file:scope`` as in ``_scoped_nodes``."""
    for name in SCAN_MODULES:
        for scope, node in _scoped_nodes(ROOT / "src" / "anosovlab" / name):
            yield f"{name}:{scope}", node


def _imports(name: str) -> set:
    """(module, name) of every name the package module ``name`` imports;
    a bare ``from . import m`` gives (m, m)."""
    tree = ast.parse((ROOT / "src" / "anosovlab" / name).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {(node.module or alias.name, alias.name)
                      for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.split(".")[-1]
                found.add((module, module))
    return found


def test_scan_modules_are_layered():
    # the word ball sits below the triple kernel and both below the scans,
    # which read every per-word value and every kernel through them
    modules = {name: {module for module, _ in _imports(name)}
               for name in ("ball.py", "triples.py")}
    assert modules["ball.py"] & {"triples", "verification"} == set()
    assert "verification" not in modules["triples.py"]
    kernels = {"_spectra", "_invariant_bases", "_rp1_fixed_points",
               "evaluate", "_intersections", "_smallest_singular_values"}
    assert sorted(kernels & {n for _, n in _imports("verification.py")}) == []


def test_one_word_ball_model():
    # every eigendecomposition is the batched one of core_linalg._spectra,
    # with or without eigenvectors, and every word image the checks read
    # is a row of their word ball
    src = ROOT / "src" / "anosovlab"
    eig = [f"{path.name}:{scope}:{node.attr}"
           for path in sorted(src.glob("*.py"))
           for scope, node in _scoped_nodes(path)
           if isinstance(node, ast.Attribute)
           and node.attr in ("eig", "eigvals")
           and ast.unparse(node.value) == "np.linalg"]
    assert eig == ["core_linalg.py:_spectra:eig",
                   "core_linalg.py:_spectra:eigvals"]
    evaluate = [where for where, node in _scan_nodes()
                if isinstance(node, ast.Name) and node.id == "evaluate"]
    assert evaluate == ["ball.py:_WordBall._products"]


def test_one_spectrum_table():
    # a Spectrum is built only in core_linalg, as one table, so no module
    # holds a per-row record or tests a row for its NumericError
    src = ROOT / "src" / "anosovlab"
    built = [f"{path.name}:{scope}" for path in sorted(src.glob("*.py"))
             for scope, node in _scoped_nodes(path)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "Spectrum"]
    assert built == ["core_linalg.py:Spectrum.take", "core_linalg.py:_spectra"]
    tests = [ast.unparse(node) for _, node in _scan_nodes()
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


def test_one_realness_rule():
    # a value is real when |Im| is at most REAL_IMAG_TOL times its own
    # modulus: every read of the tolerance is such a comparison in the
    # eigenvalue columns, and none floors the modulus
    src = ROOT / "src" / "anosovlab"

    def is_read(node):
        return ((isinstance(node, ast.Name) and node.id == "REAL_IMAG_TOL"
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute)
                    and node.attr == "REAL_IMAG_TOL"))

    nodes = [(f"{path.name}:{scope}", node) for path in sorted(src.glob("*.py"))
             for scope, node in _scoped_nodes(path)]
    reads = [where for where, node in nodes if is_read(node)]
    tests = [node for _, node in nodes if isinstance(node, ast.Compare)
             and any(map(is_read, ast.walk(node)))]
    assert set(reads) == {"spectral.py:_eigenvalue_columns"}
    assert sum(is_read(n) for t in tests for n in ast.walk(t)) == len(reads)
    assert [ast.unparse(t) for t in tests
            if any(isinstance(n, ast.Call)
                   and ast.unparse(n.func) in ("np.maximum", "max")
                   for n in ast.walk(t))] == []


def test_one_coincidence_rule():
    # two boundary points are one by the rule of groups._close_pairs, in
    # the atlas and in the linkage mask alike; the atlas measures no
    # separation and keeps no angle tolerance of its own
    src = ROOT / "src" / "anosovlab"
    callers = sorted({f"{path.name}:{scope}" for path in src.glob("*.py")
                      for scope, node in _scoped_nodes(path)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func).endswith("_close_pairs")})
    assert callers == ["ball.py:BoundaryAtlas.__init__",
                       "verification.py:_linked"]
    names = {getattr(node, attr) for _, node in _scoped_nodes(src / "ball.py")
             for attr in ("id", "attr", "name") if hasattr(node, attr)}
    assert "circle_separation" not in names
    assert [n for n in names if isinstance(n, str) and n.isupper()
            and ("TOL" in n or "SEPARATION" in n)] == []


def test_only_ck_scans_certify():
    # the gap scans run for a gap scan and for the C_k certification its
    # verdict is gated on; the H_k path builds no certification ball
    path = ROOT / "src" / "anosovlab" / "verification.py"
    callers = sorted({scope for scope, node in _scoped_nodes(path)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) == "_gap_scans"})
    assert callers == ["anosov_gap_scan", "ck_scan"]


def test_one_svd_caller():
    # core_linalg.svd holds a whole stack's factors; only singular_gaps
    # calls it, one row block at a time
    src = ROOT / "src" / "anosovlab"
    callers = sorted({f"{path.name}:{scope}" for path in src.glob("*.py")
                      for scope, node in _scoped_nodes(path)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) in ("svd", "core_linalg.svd")})
    assert callers == ["spectral.py:singular_gaps"]


def test_flag_tables_are_built_whole(monkeypatch):
    # a ball's flag table of a dimension covers every row that passed its
    # residual check, one kernel call on its first read: no scan fills
    # rows ahead, and only the one-matrix functions call the kernel too
    src = ROOT / "src" / "anosovlab"
    callers = sorted({f"{path.name}:{scope}" for path in src.glob("*.py")
                      for scope, node in _scoped_nodes(path)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) == "_invariant_bases"})
    assert callers == ["ball.py:_WordBall.flags",
                       "core_linalg.py:eig_by_modulus",
                       "spectral.py:attracting_space"]
    calls = []
    kernel = word_ball._invariant_bases

    def counting(spec, rows, start, stop):
        calls.append((rows.tolist(), stop))
        return kernel(spec, rows, start, stop)

    monkeypatch.setattr(word_ball, "_invariant_bases", counting)
    ball = word_ball._WordBall(fg_rep(1.0), 2)
    for rows in ([3], [1, 2], [3]):
        ball.flags(1, rows)
    assert calls == [(list(range(len(ball))), 1)]


def test_cli_builds_no_collar_row():
    # the collar command writes the pair rows CollarTable.columns maps; it
    # reads no per-pair or per-word column of the table itself
    path = ROOT / "src" / "anosovlab" / "cli.py"
    reads = {node.attr for scope, node in _scoped_nodes(path)
             if scope == "collar" and isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "table"}
    assert reads == {"columns", "weight_chain_ok", "words"}


def test_one_triple_kernel():
    # every triple scan runs on triples._triple_scan; only the single-item
    # checks take one direct_sum_defect call per triple
    callers = sorted({where for where, node in _scan_nodes()
                      if isinstance(node, ast.Name)
                      and node.id == "direct_sum_defect"})
    assert callers == ["verification.py:_triple_defect",
                       "verification.py:projection_triple_defect",
                       "verification.py:sopq_model_triple_defect"]


def test_one_positivity_pass():
    # the arrangement minimum and its witness come from one prefix-extreme
    # pass; no scan sweeps the arc of one z again with ufunc.accumulate
    callers = sorted({where for where, node in _scan_nodes()
                      if isinstance(node, ast.Name)
                      and node.id == "_point_minima"})
    assert callers == ["verification.py:_arrangement_minimum"]
    accumulates = sorted({where for where, node in _scan_nodes()
                          if isinstance(node, ast.Attribute)
                          and node.attr == "accumulate"})
    assert accumulates == ["verification.py:_gap_report"]


def test_exact_defects_run_only_in_the_triple_kernel():
    # the exact SVD of a scan runs only on the triples whose certified
    # bracket can reach the running minimum or maximum
    name = "_smallest_singular_values"
    callers = sorted({where for where, node in _scan_nodes()
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) == name})
    assert callers == ["triples.py:_triple_extremes"]


def test_per_word_values_come_from_the_batched_kernels():
    # the scans read reference fixed points and eigenvalue values from
    # batched tables: the word ball's, and the root-gap scan's one stack of
    # generator images; none calls a one-row function (EigenIdentityReport's
    # weight_period field is a stored name, not a read)
    names = ("rp1_fixed_points", "length_functions", "weight_period",
             "eigenvalue_ratios")
    found = sorted({(node.id, where) for where, node in _scan_nodes()
                    if isinstance(node, ast.Name) and node.id in names
                    and isinstance(node.ctx, ast.Load)})
    assert found == []


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
