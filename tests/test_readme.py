"""The README's API tour and CLI examples run as written and show what they claim, and its layout names what exists."""

import importlib
import re
import warnings
from pathlib import Path

import pytest

from muhermite import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _block(text: str, lang: str) -> str:
    return re.search(rf"## (?:API tour|CLI)\n\n```{lang}\n(.*?)```", text, re.S).group(1)


def check_tour(text: str) -> int:
    """Run the API tour; each line ending in ``# True`` must evaluate to True. Returns their count."""
    env: dict = {}
    claims = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for line in _block(text, "python").splitlines():
            code = line.split("  #")[0].strip() if "  #" in line else line.strip()
            if not code or code.startswith("#"):
                continue
            if re.search(r"#\s*True\b", line):
                assert eval(code, env) is True, line
                claims += 1
            else:
                exec(code, env)
    return claims


def check_cli(text: str, capsys) -> int:
    """Run each CLI example with a ``# -> value``; its stdout must read that value. Returns their count."""
    claims = 0
    for line in _block(text, "text").splitlines():
        found = re.match(r"muhermite (.*?)\s+# -> (\S+)", line)
        if found:
            capsys.readouterr()
            assert cli.main(found.group(1).split()) == 0, line
            assert capsys.readouterr().out.split() == [found.group(2)], line
            claims += 1
    return claims


def test_api_tour_runs_and_its_true_lines_hold():
    assert check_tour(README.read_text()) >= 2


def test_cli_examples_print_their_values(capsys):
    assert check_cli(README.read_text(), capsys) >= 2


def test_a_wrong_cli_value_fails(capsys):
    text = README.read_text().replace("# -> 24", "# -> 25")
    with pytest.raises(AssertionError):
        check_cli(text, capsys)


def check_layout(text: str) -> int:
    """The layout block names every module file and only those, and each dotted name in it resolves.

    Returns the count of dotted names.
    """
    block = re.search(r"## Layout\n\n```\n(.*?)```", text, re.S).group(1)
    package = ROOT / "src" / "muhermite"
    named = re.findall(r"^  (\w+\.py) ", block, re.M)
    assert sorted(named) == sorted(p.name for p in package.glob("*.py")), named
    dotted = [d for d in re.findall(r"\b(\w+)\.(\w+)\b", block) if d[1] != "py"]
    for module, name in dotted:
        assert hasattr(importlib.import_module(f"muhermite.{module}"), name), f"{module}.{name}"
    return len(dotted)


def test_layout_names_the_modules_and_names_that_exist():
    assert check_layout(README.read_text()) >= 2


@pytest.mark.parametrize(("old", "new"), [("  efun.py  ", "  efunc.py "), ("efun._terms", "efun._gone")])
def test_a_layout_naming_what_is_gone_fails(old, new):
    text = README.read_text()
    assert old in text
    with pytest.raises((AssertionError, ModuleNotFoundError)):
        check_layout(text.replace(old, new))
