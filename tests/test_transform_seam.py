"""Every transform in src/ehd goes through one seam:
`spectral._coeffs_from_samples` and `spectral._samples_from_coeffs`.

No other function may call into `scipy.fft` (its private `_pocketfft`
binding included, however imported or renamed), or into `numpy.fft` beyond
its wavenumber tables (`fftfreq`, `rfftfreq`).  Counting transforms at the
seam, or giving them run-owned output buffers there, then sees every
transform the program makes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ehd"
SEAM = {("spectral", "_coeffs_from_samples"), ("spectral", "_samples_from_coeffs")}
TABLES = {"fftfreq", "rfftfreq"}


def bound_modules(tree) -> dict:
    """The dotted path each imported name of a module stands for, and each
    name assigned one of those paths (`r2c = pypocketfft.r2c`)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = a.name if a.asname else (
                    a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name):
            path = dotted(node.value, bound)
            if path is not None:
                bound[node.targets[0].id] = path
    return bound


def dotted(node, bound) -> str | None:
    """The dotted path a call's function resolves to through the imports."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in bound:
        return None
    return ".".join([bound[node.id], *reversed(attrs)])


def is_transform(path: str) -> bool:
    if path.startswith("scipy.fft."):
        return True
    return path.startswith("numpy.fft.") and path.rsplit(".", 1)[1] not in TABLES


def transform_calls() -> set:
    """(module, enclosing function, called path) of every transform call."""
    found = set()
    for source in sorted(SRC.glob("*.py")):
        tree = ast.parse(source.read_text(), source.name)
        bound = bound_modules(tree)

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Call):
                path = dotted(node.func, bound)
                if path is not None and is_transform(path):
                    found.add((source.stem, scope, path))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "")
    return found


def test_only_the_seam_calls_a_transform():
    calls = transform_calls()
    assert sorted((module, scope) for module, scope, _ in calls if (module, scope) not in SEAM) == []
    # The seam itself is found, so a blind resolver cannot pass this test.
    assert {(module, scope) for module, scope, _ in calls} == SEAM
    # Each helper calls pocketfft's binding directly, beside the public call.
    for module, scope in SEAM:
        paths = {path for m, s, path in calls if (m, s) == (module, scope)}
        assert any(p.startswith("scipy.fft._pocketfft.") for p in paths), scope
        assert any(p in ("scipy.fft.rfftn", "scipy.fft.irfftn") for p in paths), scope


def test_the_resolver_sees_every_import_form():
    tree = ast.parse(
        "import scipy.fft\nimport numpy as np\nfrom scipy import fft as f\n"
        "from scipy.fft import irfftn\n"
        "import scipy.fft._pocketfft.pypocketfft as pp\n"
        "from scipy.fft import _pocketfft\n"
        "from scipy.fft._pocketfft import pypocketfft\n"
        "try:\n"
        "    from scipy.fft._pocketfft.pypocketfft import c2r as _c2r\n"
        "except ImportError:\n"
        "    _c2r = None\n"
        "r2c = pypocketfft.r2c\n"
        "def g(x):\n"
        "    scipy.fft.rfftn(x); f.fftn(x); irfftn(x); np.fft.ifftn(x); np.fft.fftfreq(4)\n"
        "    pp.c2c(x); _pocketfft.pypocketfft.r2r_fftpack(x); f._pocketfft.pypocketfft.dct(x)\n"
        "    scipy.fft._pocketfft.pypocketfft.separable_hartley(x); _c2r(x); r2c(x)\n"
    )
    bound = bound_modules(tree)
    paths = [dotted(n.func, bound) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    binding = "scipy.fft._pocketfft.pypocketfft."
    assert sorted(p for p in paths if is_transform(p)) == [
        "numpy.fft.ifftn", *(binding + name for name in (
            "c2c", "c2r", "dct", "r2c", "r2r_fftpack", "separable_hartley")),
        "scipy.fft.fftn", "scipy.fft.irfftn", "scipy.fft.rfftn"]
