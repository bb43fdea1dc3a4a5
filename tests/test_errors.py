"""The error taxonomy: one type per kind of fault, each with one exit code."""

import ast
from pathlib import Path

import pytest

from hyperx import cli, errors
from hyperx.errors import ConfigError, FormatError, GradientError, InputError

# the table in the errors module docstring
EXIT_CODES = {ConfigError: 1, InputError: 1, FormatError: 2, GradientError: 1}


def test_errors_declares_the_base_and_one_type_per_kind_of_fault():
    declared = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}
    assert declared == {"HyperxError", *(t.__name__ for t in EXIT_CODES)}


@pytest.mark.parametrize("path", sorted(Path(errors.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_re_raises_or_raises_a_concrete_type(path):
    allowed = {t.__name__ for t in EXIT_CODES}
    bad = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in allowed):
                bad.append(f"line {node.lineno}: raise {ast.unparse(node.exc)}")
    assert not bad


@pytest.mark.parametrize("error,code", EXIT_CODES.items(), ids=lambda v: getattr(v, "__name__", str(v)))
def test_cli_exits_with_each_types_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    assert cli.main(["gradcheck"]) == code
    assert capsys.readouterr().err == "error: boom\n"
