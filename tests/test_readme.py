"""The README's Python examples run as written, its command lines parse,
its CLI flag table lists the flags the parser declares, and every keyword
it passes to a public name is a parameter of that name."""

import argparse
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
FENCED = re.findall(r"^```\w*\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
INLINE = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", README,
                                           flags=re.DOTALL | re.MULTILINE))
COMMANDS = [line for block in re.findall(r"^```bash\n(.*?)^```", README,
                                         flags=re.DOTALL | re.MULTILINE)
            for line in block.splitlines() if line.startswith("nuqmc ")]


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_in_a_fresh_interpreter(source):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_the_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_parses(line):
    # parsed only, nothing is run: a retired or misspelt flag is a usage error
    from nuqmc.cli import build_parser
    argv = shlex.split(line, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command line does not parse: {line}")


def test_the_cli_flag_table_lists_the_parser_flags():
    # one row per subcommand; every backticked `--flag` in it, against the
    # options its subparser declares besides --help and the shared output flags
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", README, flags=re.MULTILINE)
    table = {sub: {code.split()[0] for code in re.findall(r"`([^`]*)`", cell)
                   if code.startswith("--")}
             for sub, cell in rows}
    from nuqmc.cli import build_parser
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    shared = {"-h", "--help", "--format", "--out"}
    declared = {sub: {flag for action in p._actions for flag in action.option_strings} - shared
                for sub, p in subparsers.choices.items()}
    assert table == declared


def _keyword_calls(source, names):
    """``(name, keyword)`` for every call ``name(..., keyword=...)`` in
    ``source`` whose name is in ``names``: keywords at the call's own
    bracket depth, not those of calls nested in its arguments."""
    calls = []
    for match in re.finditer(r"(?<![\w.])(\w+)\(", source):
        if match.group(1) not in names:
            continue
        depth, start, args = 1, match.end(), []
        for i in range(match.end(), len(source)):
            if source[i] in "([{":
                depth += 1
            elif source[i] in ")]}":
                depth -= 1
            if depth == 0 or (depth == 1 and source[i] == ","):
                args.append(source[start:i])
                start = i + 1
            if depth == 0:
                break
        calls += [(match.group(1), kw.group(1)) for arg in args
                  if (kw := re.match(r"\s*(\w+)\s*=(?!=)", arg))]
    return calls


def test_readme_keywords_are_parameters():
    # `AnalyticCdfMeasure(..., grid_hints=None)` outlived its parameter
    import nuqmc
    calls = {call for source in FENCED + INLINE
             for call in _keyword_calls(source, set(nuqmc.__all__))}
    assert calls
    unknown = sorted((name, kw) for name, kw in calls
                     if kw not in inspect.signature(getattr(nuqmc, name)).parameters)
    assert not unknown
