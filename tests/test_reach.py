"""Every public function of ``ruelle`` runs under a shipped command or is
named in the README's "Library-only functions" section."""

import ast
import inspect
import re
import sys
from pathlib import Path

import ruelle
from ruelle import cli

ROOT = Path(__file__).resolve().parents[1]


def library_only_names() -> set:
    """The backticked names that open the items of the README section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library-only functions\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`", section, flags=re.M))


def test_every_public_function_is_reached_or_named(tmp_path):
    # Read through getattr: the operator layers' names load on first use.
    exported = {name: getattr(ruelle, name) for name in ruelle.__all__}
    public = {name: fn for name, fn in exported.items() if inspect.isfunction(fn)}
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    configs = sorted((ROOT / "configs").glob("*.json"))
    sys.setprofile(profile)
    try:
        for i, cfg in enumerate(configs):
            for cmd in sorted(cli.COMMANDS):
                cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / f"{cmd}{i}")])
    finally:
        sys.setprofile(None)
    assert len(configs) == 4 and len(cli.COMMANDS) == 8
    unreached = {name for name, fn in public.items() if fn.__code__ not in ran}
    named = library_only_names()
    # One list: a name the commands reach, or one that is not a public
    # function, has no place in the section.
    assert unreached == named, (sorted(unreached - named), sorted(named - unreached))


def test_every_private_helper_is_referenced():
    """Each module-level ``_name`` function of ``src/ruelle`` is named by
    some code there outside its own def; an import alone is no use."""
    tops = [top for path in sorted((ROOT / "src" / "ruelle").glob("*.py"))
            for top in ast.parse(path.read_text()).body]
    users = {}
    for top in tops:
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                users.setdefault(name, set()).add(id(top))
    orphans = [
        top.name for top in tops
        if isinstance(top, ast.FunctionDef) and re.match(r"_[^_]", top.name)
        and users.get(top.name, set()) <= {id(top)}
    ]
    assert not orphans, orphans
