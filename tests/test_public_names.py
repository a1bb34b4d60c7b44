import ast
import re
from pathlib import Path

from ddpm1d.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ddpm1d"
READERS = [*PACKAGE.glob("*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py"),
           ROOT / "tests" / "test_acceptance.py"]


def public_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f.name for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets
                        if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id))


def test_every_public_name_in_src_has_a_reader():
    """Each public function, class, class method and UPPER_CASE constant of
    ``src/ddpm1d`` is named at least twice (its definition is one) across the
    package, ``scripts/``, ``perfbench/*.py`` and the acceptance tests; the
    other unit tests do not count as readers.

    It matches names, not bindings: a method that shares its name with
    another (``to_dict``) counts as read, and so does a mention in a
    docstring or comment. Dataclass fields and kernel entries are covered
    by the two rules below."""
    text = "\n".join(p.read_text(encoding="utf-8") for p in READERS)
    unread = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in public_names(ast.parse(path.read_text(encoding="utf-8")))
              if len(re.findall(rf"\b{name}\b", text)) < 2]
    assert unread == []


def test_every_cli_option_has_a_caller():
    """Each option string of ``run`` and ``check`` but ``-h``/``--help`` appears
    as a whole flag, not inside a longer one, in README.md, ``scripts/``,
    ``perfbench/*.py``, the benchmark workloads or the acceptance tests; a
    flag that nothing passes or documents is a second path to a config key."""
    callers = [ROOT / "README.md", *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py"),
               *ROOT.glob("perfbench/workloads/*.json"), ROOT / "tests" / "test_acceptance.py"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in callers)
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    options = {o for name in ("run", "check") for a in subcommands[name]._actions
               for o in a.option_strings if o not in ("-h", "--help")}
    assert sorted(o for o in options if not re.search(rf"(?<![\w-]){o}(?![\w-])", text)) == []


def code_nodes(paths):
    """Every AST node of the code of ``paths``: docstrings and comments hold none."""
    for p in paths:
        yield from ast.walk(ast.parse(p.read_text(encoding="utf-8")))


def checked_by_schema(cls):
    """Whether ``cls.__post_init__`` runs ``schema.check``, which reads every field."""
    return any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
               and "schema.check(" in ast.unparse(f) for f in cls.body)


def test_every_dataclass_field_in_src_has_a_reader():
    """Each field of a ``src/ddpm1d`` dataclass is read as an attribute
    (``x.name``) in the code of the package, ``scripts/``, ``perfbench/*.py``
    or the acceptance tests; a docstring or comment is no reader. The fields
    of a class whose ``__post_init__`` runs ``schema.check`` count as read:
    the schema reads each of them to check it."""
    read = {n.attr for n in code_nodes(READERS)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or checked_by_schema(cls) or not any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                continue
            unread += [f"{path.name}:{cls.name}.{f.target.id}" for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                       and f.target.id not in read]
    assert unread == []


def test_every_kernel_entry_has_a_caller():
    """Each entry of ``_kernel.c``'s method table is called as ``.name(`` in
    the code of the package, ``scripts/``, ``perfbench/*.py`` or the
    acceptance tests; an entry that only unit tests call is C nothing runs."""
    table = re.search(r"PyMethodDef methods\[\] = \{(.*?)\n\};",
                      (PACKAGE / "_kernel.c").read_text(encoding="utf-8"), re.S)
    entries = re.findall(r'^\s*\{"(\w+)",', table.group(1), re.M)
    called = {n.func.attr for n in code_nodes(READERS)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert entries and sorted(set(entries) - called) == []
