import ast
import subprocess
import sys
from pathlib import Path

import magheat

PACKAGE = Path(magheat.__file__).parent

# exported names that no run calls but tests use as independent oracles
ORACLES = {
    "assemble_radial_channel": "1-D channel reference in test_radial_two_dim_consistency",
}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _used_names():
    """Names and attributes read anywhere in the package outside ``__init__``.

    A ``def``/``class`` statement binds its name without reading it, so a
    name counts only where some code refers to it."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    uncalled = _exports() - _used_names()
    assert uncalled == set(ORACLES), (
        "exported names without a caller in the package: "
        f"{sorted(uncalled - set(ORACLES))}; oracles that gained one: "
        f"{sorted(set(ORACLES) - uncalled)}")


def test_import_loads_neither_integrate_optimize_nor_fft():
    # scipy.integrate pulls in scipy.optimize; the one function that uses its
    # quad imports it itself, so every other run starts without either;
    # no module transforms by FFT, so none loads scipy.fft; the weighted norm
    # takes its log-sum-exp in numpy, so none loads scipy.special, which
    # costs about 0.1 s and 3-4 MB at start-up
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import magheat; "
            "print(sorted({m.split('.')[1] for m in sys.modules if m.startswith("
            "('scipy.integrate', 'scipy.optimize', 'scipy.fft', 'scipy.special'))}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
