"""The documentation must stay true.

Extracts every python block from docs/TUTORIAL.md and runs them in
order in one namespace, and checks that every file, ``make`` target,
``python -m`` module, ``bench_*.py`` script and ``classminer`` command
the prose names exists —
documentation that breaks with the code fails the build.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
TUTORIAL = ROOT / "docs" / "TUTORIAL.md"


def test_tutorial_snippets_run(capsys):
    source = TUTORIAL.read_text()
    blocks = re.findall(r"```python\n(.*?)```", source, re.S)
    assert len(blocks) >= 6
    code = "\n".join(blocks)
    exec(compile(code, str(TUTORIAL), "exec"), {})  # noqa: S102 - docs test
    out = capsys.readouterr().out
    assert "shots" in out


#: Everything that documents the tree, except benchmarks/e2e/README.md
#: (its legacy map names the retired files on purpose).
PROSE = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", "Makefile",
    ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md", "src/**/*.py",
)


def _command_map() -> dict[str, set[str]]:
    """``classminer`` command -> its subcommands (empty when it takes none)."""
    from repro.cli import build_parser

    def choices(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
        return {
            name: sub
            for action in parser._actions  # noqa: SLF001 - argparse has no public walk
            if isinstance(action, argparse._SubParsersAction)  # noqa: SLF001
            for name, sub in action.choices.items()
        }

    return {name: set(choices(sub)) for name, sub in choices(build_parser()).items()}


def test_everything_the_docs_name_exists():
    targets = set(re.findall(r"^([a-z-]+):", (ROOT / "Makefile").read_text(), re.M))
    ignored = [entry for entry in (ROOT / ".gitignore").read_text().replace("/\n", "\n").split() if "/" in entry]
    commands = _command_map()
    missing = []
    for doc in (path for pattern in PROSE for path in ROOT.glob(pattern)):
        text = doc.read_text()
        for match in re.finditer(r"\b(?:src|tests|benchmarks|examples|docs)/[\w./-]*", text):
            path = match.group().rstrip(".")
            if text[match.end() : match.end() + 1] in "{*<":  # a prefix of several names
                path += "*"
            if not any(path.startswith(entry) for entry in ignored) and not any(ROOT.glob(path)):
                missing.append(f"{doc.relative_to(ROOT)}: {path}")
        for target in re.findall(r"(?:`|^|=src |run: )make\s+([a-z][a-z-]+)", text, re.M):
            if target not in targets:
                missing.append(f"{doc.relative_to(ROOT)}: make {target}")
        for module in re.findall(r"python3? -m\s+((?:repro|benchmarks)[\w.]*)", text):
            base = (ROOT if module.startswith("benchmarks") else ROOT / "src") / module.rstrip(".").replace(".", "/")
            if not (base.with_suffix(".py").exists() or (base / "__init__.py").exists()):
                missing.append(f"{doc.relative_to(ROOT)}: python -m {module}")
        for script in re.findall(r"\bbench_\w+\.py", text):
            if not (ROOT / "benchmarks" / script).exists():
                missing.append(f"{doc.relative_to(ROOT)}: {script}")
        for command, sub in re.findall(r"(?:`|^\s*|\$ )classminer +([a-z]+)(?: +([a-z]+)\b)?", text, re.M):
            if command not in commands:
                missing.append(f"{doc.relative_to(ROOT)}: classminer {command}")
            elif commands[command] and sub and sub not in commands[command]:
                missing.append(f"{doc.relative_to(ROOT)}: classminer {command} {sub}")
    assert not missing, "\n".join(missing)
