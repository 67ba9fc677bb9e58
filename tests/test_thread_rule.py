"""The package stays off the multi-threaded BLAS.

`@`, np.dot, np.matmul and np.tensordot on float arrays, and einsum with
`optimize`, hand products to the BLAS, which runs threads of its own. The
metrics kernels use plain `np.einsum` instead (see the coauthnet.metrics
module docstring). This test walks the syntax tree of every package module
and fails on any of those forms.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coauthnet"
BLAS_FUNCTIONS = {"dot", "matmul", "tensordot"}


def blas_calls(source: str) -> list[int]:
    """Line numbers of the forms that reach the BLAS."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            on_numpy = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
            if on_numpy and func.attr in BLAS_FUNCTIONS:
                lines.append(node.lineno)
            elif func.attr == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                lines.append(node.lineno)
    return sorted(lines)


def test_package_modules_use_no_blas_products():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(p.name == "metrics.py" for p in modules)
    found = {p.name: blas_calls(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "snippet",
    [
        "c = a @ b",
        "a @= b",
        "c = np.dot(a, b)",
        "c = numpy.matmul(a, b)",
        "c = np.tensordot(a, b, axes=1)",
        'c = np.einsum("ij,jk->ik", a, b, optimize=True)',
    ],
)
def test_rule_catches_each_form(snippet):
    assert blas_calls("import numpy as np\n" + snippet + "\n") == [2]


def test_rule_allows_plain_einsum():
    assert blas_calls('c = np.einsum("ij,jk->ik", a, b)\n') == []
