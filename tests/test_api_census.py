"""Every name ``src/evlhts`` defines is read by the program or the harness.

An API that only its own tests call is code the product never runs.  This
AST census lists each module-level function and class, and each method and
annotated field of a class, and fails when the name is never read in
``src/evlhts`` and never named in ``benchmarks/``.  Module-level names
count as read by a bare-name or attribute load; class members only by an
attribute load (``obj.name``), since a parameter of the same name says
nothing about the member.  The harness names spans by strings
(``"engine.word_first_hit"``), so there every identifier in a string
counts too.

The census is a lower bound.  A class member is matched by its name, not
by its owner: it passes when an attribute of that name is read off any
object, so ``Foo.size`` counts as read wherever some array's ``.size`` is.
A member that only shares a common name can be dead and still pass.

A second census checks parameters: every module-level function and
method must read each parameter it declares, since a parameter that
nothing reads is an argument every caller passes for nothing.  A
method's receiver (``self``, ``cls``) and a body that only raises
``NotImplementedError`` are exempt.  Reads inside nested functions count
for the function that declares the parameter, and the nested functions
themselves, such as the kernels' ``scan`` callbacks whose signature the
first-hit scan fixes, are not checked.

A third census checks options: a parameter with a default, in a
module-level function or a method (``__init__`` included), must be set
by some call in ``src/evlhts`` or ``benchmarks/``, by keyword or by
position, since an option that only tests set is a code path the product
never takes.  Calls match by the callee's name, as class members do
above, and a class's ``__init__`` by the class name; a ``**`` forward
sets nothing.  Dataclass fields are not checked.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "evlhts"
BENCHMARKS = ROOT / "benchmarks"

# Defined but deliberately unread, one reason each.
ALLOWED = {
    "config.Option.doc": "each key's documentation in the schema",
    "hts.compare_hts_rts": "the HTS-from-RTS relation, to be wired into rts "
                           "as a reported check (ROADMAP item 4)",
}
# Options that no call sets, one reason each.
OPTIONS_ALLOWED: dict[str, str] = {}


def definitions(module: str, source: str) -> list[tuple[str, bool]]:
    """(qualified name, is a class member) for each checked definition."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", False))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                out.append((f"{module}.{node.name}.{name}", True))
    return out


def reads(source: str) -> tuple[set, set]:
    """(bare names loaded, attribute names loaded) in one source."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def mentions(source: str) -> set:
    """Every identifier a harness source names, in code or in strings."""
    names, attrs = reads(source)
    words = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return names | attrs | words


def unread(sources: dict[str, str], harness: list[str]) -> list[str]:
    """Definitions in ``sources`` (module -> text) that nothing reads."""
    names, attrs = set(), set()
    for text in sources.values():
        n, a = reads(text)
        names |= n
        attrs |= a
    named = set().union(*(mentions(text) for text in harness))
    missing = []
    for module, text in sorted(sources.items()):
        for qualname, member in definitions(module, text):
            name = qualname.rsplit(".", 1)[1]
            seen = name in attrs if member else name in names | attrs
            if not (seen or name in named):
                missing.append(qualname)
    return missing


def _raises_not_implemented(fn: ast.FunctionDef) -> bool:
    body = [st for st in fn.body if not (isinstance(st, ast.Expr) and
                                         isinstance(st.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def _functions(module: str, source: str) -> list:
    """(qualified name, function, whether it takes a receiver) for each
    module-level function and method."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((f"{module}.{node.name}", node, False))
        elif isinstance(node, ast.ClassDef):
            functions += [
                (f"{module}.{node.name}.{item.name}", item, not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list))
                for item in node.body if isinstance(item, ast.FunctionDef)]
    return functions


def unread_parameters(module: str, source: str) -> list[str]:
    """``module.function.parameter`` (or ``module.Class.method.parameter``)
    for each parameter that its function never reads."""
    missing = []
    for qualname, fn, bound in _functions(module, source):
        if _raises_not_implemented(fn):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args][bound:] + [*a.kwonlyargs]
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        missing += [f"{qualname}.{p.arg}" for p in params
                    if p.arg not in loaded]
    return missing


def unset_options(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function.parameter`` (or ``module.Class.method.parameter``)
    for each parameter with a default in ``sources`` (module -> text) that
    no call in ``callers`` sets."""
    keywords, positions = {}, {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg is not None)
            # the arguments before the first ``*`` spread set positions
            starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
            positions[name] = max(positions.get(name, 0), starred.index(True))
    missing = []
    for module, text in sorted(sources.items()):
        for qualname, fn, bound in _functions(module, text):
            # a class is called by its own name for its ``__init__``
            callee = (qualname.split(".")[-2] if fn.name == "__init__"
                      else fn.name)
            a = fn.args
            params = [*a.posonlyargs, *a.args]
            first = len(params) - len(a.defaults)
            options = [(p.arg, i - bound < positions.get(callee, 0))
                       for i, p in enumerate(params) if i >= first]
            options += [(p.arg, False) for p, d in
                        zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            missing += [f"{qualname}.{arg}" for arg, by_position in options
                        if not (by_position or
                                arg in keywords.get(callee, ()))]
    return missing


def test_detects_an_unread_name():
    src = {
        "m": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Box:\n"
            "    size: int\n"
            "    label: str\n"
            "    def area(self):\n"
            "        return self.size ** 2\n"
            "def used(label):\n"
            "    return Box(1, label).area()\n"
            "def spare():\n"
            "    return used('x')\n"
        ),
    }
    # ``label`` is read only as a parameter, never as ``box.label``
    assert unread(src, []) == ["m.Box.label", "m.spare"]
    assert unread(src, ["SPANS = ('m.spare', 'm.Box.label')\n"]) == []


def test_every_name_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    harness = [p.read_text() for p in sorted(BENCHMARKS.glob("*.py"))]
    assert [q for q in unread(sources, harness) if q not in ALLOWED] == []


def test_allow_list_is_current():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    harness = [p.read_text() for p in sorted(BENCHMARKS.glob("*.py"))]
    assert set(ALLOWED) <= set(unread(sources, harness))


def test_detects_an_unread_parameter():
    src = (
        "class Shape:\n"
        "    def area(self, scale):\n"
        "        raise NotImplementedError\n"
        "    def grow(self, by, unused):\n"
        "        return by\n"
        "    @staticmethod\n"
        "    def make(kind):\n"
        "        return Shape()\n"
        "def kernel(gen, count, *, cap, **extra):\n"
        "    def scan(tile, cols):\n"
        "        return gen, cols\n"
        "    return scan(count, cap)\n"
    )
    # ``gen`` is read only in the nested ``scan``, whose own unread
    # ``tile`` is not checked
    assert unread_parameters("m", src) == [
        "m.Shape.grow.unused", "m.Shape.make.kind", "m.kernel.extra"]


def test_detects_an_unset_option():
    src = (
        "class Box:\n"
        "    def __init__(self, size=1, label=''):\n"
        "        self.size, self.label = size, label\n"
        "def scan(gen, count, chunk=256, *, cap=10, start=0, tile=2):\n"
        "    return gen, count, chunk, cap, start, tile\n"
        "def forward(**kw):\n"
        "    return scan(1, 2, 64, cap=5, **kw), Box(3)\n"
    )
    # ``chunk`` is set by position and ``cap`` by keyword; the ``**``
    # forward sets neither ``start`` nor ``tile``, nor ``Box``'s ``label``
    assert unset_options({"m": src}, [src]) == [
        "m.Box.__init__.label", "m.scan.start", "m.scan.tile"]
    assert unset_options({"m": src}, [src, "scan(0, 0, start=1)\n"]) == [
        "m.Box.__init__.label", "m.scan.tile"]


def test_every_option_is_set():
    # and every allowed one is still unset
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [*sources.values(),
               *(p.read_text() for p in sorted(BENCHMARKS.glob("*.py")))]
    assert sorted(unset_options(sources, callers)) == sorted(OPTIONS_ALLOWED)


def test_every_parameter_is_read():
    assert [q for p in sorted(SRC.glob("*.py"))
            for q in unread_parameters(p.stem, p.read_text())] == []
