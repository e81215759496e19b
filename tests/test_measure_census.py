"""No module switches on a measure's class.

A measure states what the rest of the package reads off it: the maps it
is invariant for and its digit law (``maps``, ``p_zero``), checked by the
one ``measures.require_invariant``.  So a new measure touches
``measures.py`` and the builder that turns a config into one, and nothing
else.  This AST census fails when a module of ``src/evlhts`` calls
``isinstance`` on ``MeasureModel`` or a subclass of it, or when a module
other than ``measures.py`` names a subclass outside the builder
``experiments._build_measure`` and the import that serves it.

A ball is laid out once, too: outside ``measures.py`` only
``hts.ball_target`` calls ``ball_arcs``, and every sampler reads the arcs
it stores in the target.
"""

import ast
import inspect
import pathlib

from evlhts import measures

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "evlhts"
BUILDER = ("experiments", "_build_measure")

SUBCLASSES = {name for name, obj in vars(measures).items()
              if inspect.isclass(obj) and issubclass(obj, measures.MeasureModel)
              and obj is not measures.MeasureModel}


def _name(node) -> str | None:
    """The class a name or an attribute (``measures.Lebesgue1D``) reads."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def class_switches(source: str, classes: set) -> list[int]:
    """Lines that call ``isinstance`` with one of ``classes``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _name(node.func) == "isinstance"
                and len(node.args) == 2):
            continue
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(_name(k) in classes for k in kinds):
            lines.append(node.lineno)
    return lines


def class_names(source: str, classes: set, allowed_function=None
                ) -> list[int]:
    """Lines that name one of ``classes``, except inside the function
    ``allowed_function`` and in the ``from .measures import`` that serves
    it (when one is given)."""
    tree = ast.parse(source)
    skip = set()
    for node in tree.body if allowed_function else ():
        if isinstance(node, ast.FunctionDef) and node.name == allowed_function:
            skip.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "measures":
            skip.add(id(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.ImportFrom):
            named = [alias.name for alias in node.names]
        else:
            named = [_name(node)]
        if any(name in classes for name in named):
            lines.append(node.lineno)
    return sorted(set(lines))


def calls(source: str, name: str, allowed_function=None) -> list[int]:
    """Lines that call the function or method ``name``, except inside the
    top-level function ``allowed_function``."""
    tree = ast.parse(source)
    skip = {id(n) for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name == allowed_function for n in ast.walk(node)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in skip
                   and _name(node.func) == name})


def test_the_census_sees_the_measures():
    assert {"Lebesgue1D", "BernoulliDoubling", "EmpiricalOrbit"} <= SUBCLASSES


def test_detects_a_class_switch_and_a_stray_name():
    src = (
        "from .measures import Lebesgue1D, MeasureModel\n"
        "def p_zero(measure: MeasureModel):\n"
        "    if isinstance(measure, (int, measures.Lebesgue1D)):\n"
        "        return 0.5\n"
        "def build():\n"
        "    return Lebesgue1D()\n"
    )
    assert class_switches(src, SUBCLASSES | {"MeasureModel"}) == [3]
    assert class_names(src, SUBCLASSES) == [1, 3, 6]
    assert class_names(src, SUBCLASSES, allowed_function="build") == [3]


def test_no_module_switches_on_a_measure_class():
    found = {p.stem: class_switches(p.read_text(),
                                    SUBCLASSES | {"MeasureModel"})
             for p in sorted(SRC.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_only_the_measures_and_their_builder_name_a_measure():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "measures":
            continue
        allowed = BUILDER[1] if path.stem == BUILDER[0] else None
        lines = class_names(path.read_text(), SUBCLASSES, allowed)
        if lines:
            found[path.stem] = lines
    assert found == {}


def test_detects_a_stray_ball_layout():
    src = (
        "def ball_target(measure):\n"
        "    return measure.ball_arcs(0.3, 0.1)\n"
        "def scan(measure, target):\n"
        "    return ball_arcs(measure.ball_arcs(0.3, target.eta))\n"
    )
    assert calls(src, "ball_arcs") == [2, 4]
    assert calls(src, "ball_arcs", allowed_function="ball_target") == [4]


def test_only_the_measures_and_ball_target_lay_out_a_ball():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "measures":
            continue
        allowed = "ball_target" if path.stem == "hts" else None
        lines = calls(path.read_text(), "ball_arcs", allowed)
        if lines:
            found[path.stem] = lines
    assert found == {}
