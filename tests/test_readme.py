import re
import shlex
from pathlib import Path

from ddpm1d.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_names_every_module():
    section = (ROOT / "README.md").read_text().split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = [p.name for p in (ROOT / "src" / "ddpm1d").glob("*.py")]
    assert sorted(listed) == sorted(m for m in modules if not m.startswith("__"))


def test_readme_command_lines_parse():
    blocks = re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("ddpm1d ")]
    assert lines
    for line in lines:
        _build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_prose_flags_are_run_or_check_options():
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    # the Benchmark section's flags belong to perfbench/run.py
    text = re.sub(r"^## Benchmark\n.*?(?=^## |\Z)", "", text, flags=re.S | re.M)
    flags = set(re.findall(r"`(--[a-z][a-z-]*)", text))
    assert flags
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    options = {o for name in ("run", "check") for a in subcommands[name]._actions
               for o in a.option_strings}
    assert sorted(flags - options) == []
