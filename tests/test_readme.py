"""README's Python quick start runs as written, its flags table matches
the CLI, its Layout names every module, and the constants its prose
quotes are the code's."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from psrplan.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)  # the block reads its model by a relative path
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["v_opt"] >= namespace["v_base"]


def readme_flags():
    """{flag: default cell} of README's "Useful flags" table; a row may
    name several flags, which share its default."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Useful flags:", 1)[1].split("\n\n")[1]
    flags = {}
    for row in table.splitlines()[2:]:
        names, _, default = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`(--[\w-]+)`", names):
            flags[name] = default.strip("`")
    return flags


def cli_flags():
    """{flag: default} over every subcommand of the CLI's parser."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {}
    for sub in commands.choices.values():
        for action in sub._actions:
            for name in action.option_strings:
                if name.startswith("--") and name != "--help":
                    assert flags.setdefault(name, action.default) == action.default, name
    return flags


def test_the_flags_table_lists_every_cli_flag_with_its_default():
    table, flags = readme_flags(), cli_flags()
    assert sorted(table) == sorted(flags)
    for name, default in flags.items():
        numeric = isinstance(default, (int, float)) and not isinstance(default, bool)
        if numeric:
            assert float(table[name]) == default, name
        else:
            assert not re.fullmatch(r"[\d.e+-]+", table[name]), name


def test_the_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    package = layout.split("src/psrplan/\n", 1)[1].split("\npipebench/", 1)[0]
    listed = set(re.findall(r"^  (\w+\.py) ", package, re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "psrplan").glob("*.py")} - {"__init__.py"}
    assert listed == modules


# the constants README's prose quotes, each with the phrases that quote
# it, the figure as group 1; README's whitespace is collapsed to single
# spaces before matching
README_CONSTANTS = {
    "cassandra._SHORT_RUN": [r"run of ([\d,]+) or more"],
    "grid.BLOCK_BRANCHES": [r"`grid\.BLOCK_BRANCHES` \(([\d,]+)\)"],
    "cassandra.TABLE_BUDGET": [
        r"more than (\S+) entries \(`cassandra\.TABLE_BUDGET`",
        r"NAME_ENTRIES each, would hold more than (\S+) entries",
    ],
    "cassandra.NAME_ENTRIES": [r"at ([\d,]+) entries each \(`cassandra\.NAME_ENTRIES`"],
    "cassandra.DEFAULT_REWARD_CAP": [r"At most ([\d,]+) distinct reward values"],
    "cassandra._MAX_DIGITS": [r"more than ([\d,]+) digits"],
    "model.STOCHASTIC_TOL": [r"`model\.STOCHASTIC_TOL` \(([\d.e-]+)\)"],
    "oracle.NODE_BUDGET": [r"`psrplan\.oracle\.NODE_BUDGET` \(([\d,]+) distinct"],
    "cli.SCHEMA_VERSION": [r"`schemaVersion` \(currently `(\d+)`\)"],
}
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def figure(text):
    """A README figure as a number: ``8,192``, ``1e-9``, ``2²⁷`` or ``2**27``."""
    power = re.fullmatch(r"(\d+)(?:\*\*(\d+)|([⁰¹²³⁴⁵⁶⁷⁸⁹]+))", text)
    if power:
        base, exponent, superscript = power.groups()
        return int(base) ** int(exponent or superscript.translate(SUPERSCRIPTS))
    return float(text.replace(",", ""))


@pytest.mark.parametrize("constant", sorted(README_CONSTANTS))
def test_the_readme_quotes_each_constant_as_the_code_sets_it(constant):
    module, name = constant.split(".")
    value = getattr(importlib.import_module(f"psrplan.{module}"), name)
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    for phrase in README_CONSTANTS[constant]:
        found = re.findall(phrase, readme)
        assert found, phrase
        assert [figure(text) for text in found] == [value] * len(found), phrase
