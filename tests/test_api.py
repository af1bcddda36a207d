"""The public surface: ``qmf.__all__``, every submodule's ``__all__``, the
README's Python examples, what the package imports, and the names the
benchmark's span recorder wraps (``qmfbench/spans.py``, loaded by path and
only read)."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import qmf

README = Path(__file__).resolve().parent.parent / "README.md"
SPANS = Path(__file__).resolve().parent.parent / "qmfbench" / "spans.py"
SOURCES = sorted(Path(qmf.__file__).resolve().parent.glob("*.py"))

PUBLIC = [
    "EXACT", "float_mode", "Poly", "JetProblem", "build_spectrum",
    "compute_quasimodes", "QuasimodeResult", "VerificationReport", "transport_residual",
    "eigen_residual", "orthonormality_report", "rs_oracle", "crosscheck_eigenvalue_1d",
    "preset_problem", "run_command", "__version__",
]


def test_package_exports_the_documented_names():
    assert sorted(qmf.__all__) == sorted(PUBLIC)
    for name in qmf.__all__:
        assert hasattr(qmf, name), name


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qmf.__path__)))
def test_submodule_all_resolves(module):
    mod = importlib.import_module(f"qmf.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"qmf.{module}.{name}"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks, start=1):  # in order, in one namespace
        exec(compile(block, f"{README.name} python block {i}", "exec"), namespace)


def _public_callables():
    """(qualified name, callable) of every public function, class and public
    method reachable from ``qmf.__all__`` and the submodules' ``__all__``."""
    modules = [qmf] + [importlib.import_module(f"qmf.{m.name}")
                       for m in pkgutil.iter_modules(qmf.__path__)]
    for mod in modules:
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                yield f"{mod.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if callable(member) and not attr.startswith("_"):
                        yield f"{mod.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{mod.__name__}.{name}", obj


def test_one_tolerance_the_float_modes_rtol():
    # float zero decisions all go through mode.negligible; the only settable
    # tolerance is FloatMode's rtol, which float_mode passes on
    allowed = {"qmf.float_mode", "qmf.series_algebra.float_mode", "qmf.series_algebra.FloatMode"}
    for qualname, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert not {"tol", "rel_tol"} & set(params), qualname
        assert "rtol" not in params or qualname in allowed, qualname


def _imported_roots(nodes):
    """The top-level package of every module an import statement among ``nodes`` names."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_no_numpy_or_scipy(path):
    # the package has no runtime dependency: no import anywhere in the module,
    # inside functions included, names numpy or scipy
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not {"numpy", "scipy"} & set(_imported_roots(ast.walk(tree)))


def test_every_span_site_resolves():
    # a renamed or moved name would leave its benchmark metric missing
    spec = importlib.util.spec_from_file_location("qmfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, sites in spans.SITES.items():
        for module_name, path in sites:
            owner, attr = spans.site_owner(module_name, path)
            assert owner is not None and hasattr(owner, attr), (name, module_name, path)
