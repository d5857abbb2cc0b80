"""No forwarding layer: code that holds an answer is called directly.  A
walk of the source keeps these forwarders from coming back:

- ``SetMor.from_table`` and ``SetMor.from_rule``: a finset morphism is
  built by its constructor, ``SetMor(dom, cod, rule)`` or
  ``SetMor(dom, cod, mapping=...)``;
- a module-level ``table_apply``: a function table is read as
  ``t.lookup[k]``;
- a module-level ``gamma`` in ``closed``: gamma is the structure's own
  cache, ``cs.gamma(f)``;
- an ``obj_key`` defined anywhere but ``Category``: the key is the
  position in ``objects()``, the canonical order of every category;
- a function-local import in ``closedmc``: U(M) is built there, beside
  the witness that caches it, so no import cycle needs hiding."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _forwarders(module: str, source: str) -> set[str]:
    """The forwarders defined in ``source``, the text of the module named
    ``module``: ``Class.method`` or a function name, and for a
    function-local import the function that holds it."""
    found = set()
    for stmt in ast.parse(source).body:
        if _is_function(stmt):
            if stmt.name == "table_apply" or (module, stmt.name) == ("closed", "gamma"):
                found.add(stmt.name)
            functions = [(stmt.name, stmt)]
        elif isinstance(stmt, ast.ClassDef):
            functions = [
                (f"{stmt.name}.{fn.name}", fn) for fn in stmt.body if _is_function(fn)
            ]
        else:
            continue
        for qualname, fn in functions:
            if qualname in ("SetMor.from_table", "SetMor.from_rule"):
                found.add(qualname)
            if fn.name == "obj_key" and qualname != "Category.obj_key":
                found.add(qualname)
            if module == "closedmc" and any(
                isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn)
            ):
                found.add(qualname)
    return found


def test_the_walk_finds_the_forwarders():
    source = '''
import functools

def table_apply(t, k):
    return t.lookup[k]

def gamma(cs, f):
    return cs.gamma(f)

class Category:
    def obj_key(self, x):
        return self.objects().index(x)

class SetMor:
    @staticmethod
    def from_table(dom, cod, mapping):
        return SetMor(dom, cod, mapping=mapping)

    @staticmethod
    def from_rule(dom, cod, rule):
        return SetMor(dom, cod, rule)

class FinSetCategory(Category):
    def obj_key(self, x):
        return hf_key(x)

class Witness:
    def _underlying(self, bounds):
        from .correspond import underlying_closed_category

        return underlying_closed_category(self, bounds)

def nested():
    def inner():
        import json
'''
    every = {
        "table_apply",
        "SetMor.from_table",
        "SetMor.from_rule",
        "FinSetCategory.obj_key",
    }
    assert _forwarders("setcat", source) == every
    assert _forwarders("closed", source) == every | {"gamma"}
    assert _forwarders("closedmc", source) == every | {"Witness._underlying", "nested"}


def test_no_forwarder_stands_between_a_caller_and_the_answer():
    found = {
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _forwarders(path.stem, path.read_text())
    }
    assert not found
