"""The README's code runs as written, and the names it quotes exist, so API
drift fails here rather than leaving the docs wrong."""

import builtins
import importlib
import itertools
import json
import pathlib
import pkgutil
import re
import shlex

import contactopt
from contactopt import harness
from contactopt.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = [contactopt] + [
    importlib.import_module(f"contactopt.{m.name}")
    for m in pkgutil.iter_modules(contactopt.__path__)
]
# where the project sets or reads an environment variable by name
ENV_CODE = [
    *(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "conftest.py"
]


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md, Library example", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 5


def unresolved_names(text):
    """The capitalized names that lead a backticked span of text, outside
    fenced blocks, and resolve nowhere: not as an attribute of a contactopt
    module (``Trajectory.of`` by its ``Trajectory``), not as a builtin, and,
    for an upper-case name, not as an environment variable the code sets or
    reads.  Single capitals are the coordinates X, P, S and H, not names."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    env_code = None
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        lead = re.match(r"[A-Z][A-Za-z0-9_]+", span)
        if lead is None:
            continue
        name = lead.group(0)
        if hasattr(builtins, name) or any(hasattr(m, name) for m in MODULES):
            continue
        if name.isupper():
            if env_code is None:
                env_code = "".join(p.read_text() for p in ENV_CODE)
            if f'"{name}"' in env_code:
                continue
        if name not in missing:
            missing.append(name)
    return missing


def test_every_capitalized_name_in_the_readme_resolves():
    assert unresolved_names(README.read_text()) == []


def test_a_name_the_code_lost_is_caught():
    text = (
        "`Trajectory.of` from a `ContactState`, `ValueError`, `X`/`P`/`S`, "
        "`CONTACT_OPT_SEED`, `NO_SUCH_VARIABLE=1`\n```python\nGone()\n```"
    )
    assert unresolved_names(text) == ["ContactState", "NO_SUCH_VARIABLE"]


def readme_section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_every_cli_command_in_the_readme_parses():
    """Each ``contactopt`` command of the CLI block, its continuation lines
    joined and a shell redirect cut off, parses with the real parser, and
    its start reads through the --init reader."""
    block = re.search(r"```sh\n(.*?)```", readme_section("CLI"), re.S).group(1)
    for line in filter(str.strip, block.replace("\\\n", " ").splitlines()):
        argv = shlex.split(line)
        assert argv[0] == "contactopt", line
        argv = list(itertools.takewhile(lambda tok: tok not in (">", "|"), argv[1:]))
        args = build_parser().parse_args(argv)
        if getattr(args, "init", None) is not None:
            harness.parse_init_flag(args.init)


def test_every_start_form_in_the_readme_reads():
    """The --init table has one row per config init kind, and each form,
    its placeholders filled with increasing numbers, reads as that kind."""
    table = readme_section("CLI").split("### Start-point syntax", 1)[1]
    forms = re.findall(r"^\| `([a-z]+:[^`]*)`", table, re.M)
    kinds = []
    for form in forms:
        kind, _, names = form.partition(":")
        numbers = ",".join(str(i + 1) for i in range(len(names.split(","))))
        assert harness.parse_init_flag(f"{kind}:{numbers}").kind == kind, form
        kinds.append(kind)
    assert sorted(kinds) == sorted(harness._INIT_KIND_KEYS)


def test_the_config_example_parses():
    """The JSON block of the configs section is a config search reads."""
    block = re.search(r"```json\n(.*?)```", readme_section("Experiment configs"), re.S).group(1)
    spec = harness.parse_experiment(json.loads(block))
    assert [e.kind for e in spec.optimizers] == ["cm", "nag_k", "crgd"]
