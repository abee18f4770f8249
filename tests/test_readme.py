"""Every ```python block of README.md runs as written and every
``oqspectra`` command line of its ```sh blocks parses, so the quickstart
names only API and options that exist."""

import dataclasses
import importlib
import pathlib
import pkgutil
import re
import shlex

import oqspectra
from oqspectra import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for k, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {k}", "exec"), {"__name__": "readme"})


def test_command_lines_parse():
    # every `oqspectra ...` line of the sh blocks, cut at a pipe or a
    # comment, parses with the CLI's own parser; nothing runs
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [shlex.split(re.split(r"[|#]", line)[0]) for block in blocks
             for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["oqspectra"]]
    assert len(commands) >= 4
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if args.command == "verify":
            assert cli._parse_dims(args.dims), argv


def test_named_constants_hold_their_values():
    # every "`module.NAME` (`value`)" pair of README names a constant of
    # that module with that value, so a changed tolerance cannot leave the
    # README behind
    pairs = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)` \(`([^`]+)`\)", README.read_text())
    assert len(pairs) >= 4
    for module, name, value in pairs:
        constant = getattr(importlib.import_module(f"oqspectra.{module}"), name)
        assert constant == float(value), (module, name, value)


def test_named_attributes_exist():
    # every backticked `module.name` (a module of the package, also as
    # `oqspectra.module`) and `Class.attr` (a class of the package) names an
    # attribute or dataclass field that exists, so the README cannot keep
    # one that was deleted or renamed
    modules = {info.name: importlib.import_module(f"oqspectra.{info.name}")
               for info in pkgutil.iter_modules(oqspectra.__path__)
               if not info.name.startswith("_")}  # __main__ would run the CLI
    classes = {value.__name__: value for module in modules.values()
               for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("oqspectra")}
    named = set(re.findall(r"`(\w+)\.(\w+)`", README.read_text()))
    checked = 0
    for owner, name in sorted(named):
        if owner == "oqspectra":
            assert name in modules, name
        elif owner in modules:
            assert hasattr(modules[owner], name), (owner, name)
        elif owner in classes:
            cls = classes[owner]
            assert hasattr(cls, name) or (dataclasses.is_dataclass(cls) and name in {
                field.name for field in dataclasses.fields(cls)}), (owner, name)
        else:
            continue
        checked += 1
    assert checked >= 40
