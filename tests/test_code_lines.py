import ast
import importlib.util
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment
x = (1 +
     2)


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return [
            # a comment inside a statement
            x,
        ]
'''


def test_counts_statement_lines_only():
    # code: the two lines of x = ..., class C, def f and the three
    # list lines that are not a comment
    assert code_lines.code_lines(SNIPPET) == 7


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [name for name, _ in rows]
    assert names[-1] == "total" and "quadforms.py" in names
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])


# names with no caller in src/qformlab or perfbench that stay on purpose,
# each with its reason: {"module.name" or "module.Class.method": reason}
ALLOWED_UNCALLED = {}


def _references(tree) -> Counter:
    """How often each name is read as a Name, an attribute or an import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def test_every_src_name_has_a_caller():
    # every module-level function and class of src/qformlab, and every
    # method that is not a dunder, is referred to by another statement of
    # src/qformlab or by perfbench (TARGETS and CACHES name theirs as
    # dotted strings); a reference inside the definition itself does not
    # count, and names are matched by their last component only
    used, defined = Counter(), []
    for path in sorted(code_lines.PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used += _references(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(("%s.%s" % (path.stem, node.name), node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    ("%s.%s.%s" % (path.stem, node.name, m.name), m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    bench = Counter()
    for path in (_ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        bench += _references(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & {"TARGETS", "CACHES"}:
                for leaf in ast.walk(node.value):
                    if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                        bench.update(leaf.value.split("."))
    uncalled = []
    for qualname, node in defined:
        name = qualname.rsplit(".", 1)[1]
        if used[name] <= _references(node)[name] and not bench[name] and qualname not in ALLOWED_UNCALLED:
            uncalled.append(qualname)
    assert not uncalled, "no caller in src/qformlab or perfbench: %s" % ", ".join(uncalled)
