import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> dict[str, object]:
    """Run the Python block under "Library quick start" in README.md; map
    the source of each expression statement to its value."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    return values


def test_readme_library_quick_start_runs_and_agrees():
    values = _quick_start()

    def value(prefix):
        (hit,) = [v for src, v in values.items() if src.startswith(prefix)]
        return hit

    for route in ("count_monotone_transitive", "solve_monotone", "monotone_genus0"):
        assert value(route) == 4
    assert value("form.coefficient((2, 1))") == Fraction(29, 720)
    # the kernel reads alpha from the divisor grading of series and aux
    assert value("factorial(6) * lagrange_extract(series, aux)") == value("value_from_form")
    assert value("value_from_form") == 281030400
