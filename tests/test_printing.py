"""Objects and morphisms print as ``str``, and a morphism value that
carries ``dom``/``cod`` answers them itself.  A walk of the source keeps
the print layer and the endpoint overrides that only read a morphism's
fields from coming back: no structure defines ``show_mor``, only
``Category`` defines ``show_obj`` (the benchmark's ek summary prints
through it), and outside ``Category`` and ``Multicategory`` no ``dom`` or
``cod`` method only returns a field of its argument.  Structures of named
morphisms keep their endpoint tables."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"

ENDPOINT_OWNERS = {"Category", "Multicategory"}


def _reads_own_field(fn) -> bool:
    """fn's body, past a docstring, is ``return arg.attr`` for one of its
    arguments other than self."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    args = {a.arg for a in fn.args.args[1:]}
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    value = body[0].value
    return (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id in args
    )


def _print_and_endpoint_layers(source: str) -> set[str]:
    """``Class.method`` for each show_mor, each show_obj other than
    Category's, and each dom/cod outside ENDPOINT_OWNERS that only reads
    its argument's field, defined in ``source``."""
    found = set()
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = f"{cls.name}.{fn.name}"
            if fn.name == "show_mor" or (
                fn.name == "show_obj" and name != "Category.show_obj"
            ):
                found.add(name)
            elif (
                fn.name in ("dom", "cod")
                and cls.name not in ENDPOINT_OWNERS
                and _reads_own_field(fn)
            ):
                found.add(name)
    return found


def test_the_walk_finds_the_print_and_endpoint_layers():
    source = '''
class Category:
    def dom(self, f):
        return f.dom

    def show_obj(self, x):
        return str(x)

    def show_mor(self, f):
        return str(f)

class Points(Category):
    def dom(self, f: Point):
        """Its own field."""
        return f.dom

    def cod(self, f):
        return f.cod

    def show_obj(self, x):
        return self._base.show_obj(x)

class Named(Category):
    def dom(self, f):
        return self._ends[f][0]

    def cod(self, f):
        return self._m.cod(f)

class Unary(Category):
    def dom(self, f):
        return self._m.dom(f)[0]
'''
    assert _print_and_endpoint_layers(source) == {
        "Category.show_mor",
        "Points.dom",
        "Points.cod",
        "Points.show_obj",
    }


def test_no_structure_restates_how_a_value_prints_or_where_it_starts_and_ends():
    found = {
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _print_and_endpoint_layers(path.read_text())
    }
    assert not found
