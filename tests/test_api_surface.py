"""No function without a caller, no parameter without a caller, and no
parameter without a reader.

An AST scan of the package's public functions and methods against every call
in ``src/`` and ``bench/``: a defaulted parameter that no call passes, by
keyword or by position, is a setting with a single value in use, and belongs
in the code as a constant.  Calls in ``tests/`` do not count: a setting that
only a test varies has no user.  A call that only hands on another such
parameter unchanged, or passes a literal equal to the default, does not
count as setting it.  A parameter of a private helper that every call
passes as the same literal is a constant in the same way.  A parameter of a
public function or method that its body never reads is an argument every
caller writes for nothing.  A public function or method that no code in
``src/`` or ``bench/`` refers to, by a call or by handing its name on, has
no user outside the tests: it belongs next to the oracles or out of the
package.  Every name a module exports in ``__all__`` must also resolve, so
a removal leaves no stale export behind.
"""

import ast
import importlib
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbdsde"
SCANNED = ("src", "bench")
NOT_LITERAL = object()
# bench/workloads.py passes these by keyword, always with the default, so
# they stay until the benchmark's workloads stop passing them
KEPT_FOR_BENCH = ("generators.envelope_property_check(growth_c)",
                  "generators.envelope_property_check(growth_phi)")


class Literal(NamedTuple):
    value: object


def _literal(node: ast.expr):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return NOT_LITERAL


def _written(fn: ast.FunctionDef, is_method: bool):
    """The positional parameters a caller writes: all but a method's self."""
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    return (fn.args.posonlyargs + fn.args.args)[1 if is_method and not static else 0:]


def _defaulted(fn: ast.FunctionDef, is_method: bool):
    """(name, position or None, default) of each defaulted parameter; the
    position counts from the first argument a caller writes, None for
    keyword-only; the default is its literal value, else NOT_LITERAL."""
    args = fn.args
    positional = _written(fn, is_method)
    first = len(positional) - len(args.defaults)
    for index, default in zip(range(first, len(positional)), args.defaults):
        yield positional[index].arg, index, _literal(default)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, _literal(default)


def _public_functions(tree: ast.Module, module: str):
    """(qualified name, def node, is_method) of each public function and
    public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _private_helpers(tree: ast.Module, module: str):
    """(qualified name, def node, is_method) of each private function and
    private method; dunder methods are called by the language, not by name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                        and not item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _helper_parameters():
    """{(qualified name, called name): [(parameter, position or None), ...]}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, fn, is_method in _private_helpers(ast.parse(path.read_text()), path.stem):
            params = [(a.arg, i) for i, a in enumerate(_written(fn, is_method))]
            params += [(a.arg, None) for a in fn.args.kwonlyargs]
            if params:
                out[(qualified, fn.name)] = params
    return out


def _public_parameters():
    """{(qualified name, called name): [(parameter, position, default), ...]}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, fn, is_method in _public_functions(ast.parse(path.read_text()), path.stem):
            params = list(_defaulted(fn, is_method))
            if params:
                out[(qualified, fn.name)] = params
    return out


def _scanned_modules(root: Path):
    """(path, parsed module) of every file in the scanned trees under ``root``."""
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _references(root: Path = ROOT):
    """Every name the scanned trees under ``root`` load, a dotted name by its
    last attribute: a call and a name handed on alike.  Import lines and
    strings, such as a list of traced names, refer to nothing."""
    names = set()
    for _, tree in _scanned_modules(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _unreferenced(root: Path = ROOT):
    """Qualified names of the public functions and methods of the package
    under ``root`` that no scanned code refers to."""
    names = _references(root)
    return [qualified for path in sorted((root / "src" / "rbdsde").glob("*.py"))
            for qualified, fn, _ in _public_functions(ast.parse(path.read_text()), path.stem)
            if fn.name not in names]


def _calls(root: Path = ROOT):
    """{called name: [(positional sources, keyword sources)]} over every call
    in the scanned trees under ``root``, a call named by its last attribute.
    An argument's source is (function, parameter) when it is a bare defaulted
    parameter of the public package function making the call,
    ``Literal(value)`` when it is a literal, else None.  ``*args`` and
    ``**kwargs`` only forward what some other call passes, so they and the
    positions after them set nothing themselves."""
    out = {}
    for path, tree in _scanned_modules(root):
        scopes = [(tree, "", set())]
        if path.parent == root / "src" / "rbdsde":
            scopes += [(fn, qualified, {name for name, _, _ in _defaulted(fn, is_method)})
                       for qualified, fn, is_method in _public_functions(tree, path.stem)]
        seen = set()
        for scope, qualified, own in reversed(scopes):  # functions before the module

            def source(value):
                if isinstance(value, ast.Name) and value.id in own:
                    return qualified, value.id
                literal = _literal(value)
                return None if literal is NOT_LITERAL else Literal(literal)

            for node in ast.walk(scope):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                seen.add(id(node))
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None)
                if name is None:
                    continue
                positional = []
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    positional.append(source(arg))
                keywords = {k.arg: source(k.value) for k in node.keywords if k.arg is not None}
                out.setdefault(name, []).append((positional, keywords))
    return out


def _unset(params, calls):
    """Sorted names of the parameters no call sets; a pass-through sets its
    target only once its own source is set, a literal only when it differs
    from the default."""
    is_set: set[tuple[str, str]] = set()
    changed = True
    while changed:
        changed = False
        for (qualified, called), defaulted in params.items():
            for name, position, default in defaulted:
                if (qualified, name) in is_set:
                    continue
                for positional, keywords in calls.get(called, ()):
                    if name in keywords:
                        src = keywords[name]
                    elif position is not None and position < len(positional):
                        src = positional[position]
                    else:
                        continue
                    if isinstance(src, Literal):
                        sets = default is NOT_LITERAL or src.value != default
                    else:
                        sets = src is None or src in is_set
                    if sets:
                        is_set.add((qualified, name))
                        changed = True
                        break
    return [f"{qualified}({name})" for (qualified, _), defaulted in sorted(params.items())
            for name, _, _ in defaulted if (qualified, name) not in is_set]


def _unread_parameters(tree: ast.Module, module: str):
    """``qualified(parameter)`` of each parameter of a public function or
    public method that its body, nested functions included, never reads; a
    method's self is not written by its callers and is skipped."""
    out = []
    for qualified, fn, is_method in _public_functions(tree, module):
        args = fn.args
        params = _written(fn, is_method) + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{qualified}({a.arg})" for a in params if a.arg not in read]
    return out


def _constant_arguments(params, calls):
    """``qualified(parameter=value)`` of each parameter that every call passes,
    by keyword or by position, as one and the same literal."""
    out = []
    for (qualified, called), named in sorted(params.items()):
        sites = calls.get(called, ())
        for name, position in named:
            passed = []
            for positional, keywords in sites:
                if name in keywords:
                    passed.append(keywords[name])
                elif position is not None and position < len(positional):
                    passed.append(positional[position])
                else:
                    passed.append(None)
            if (passed and all(isinstance(src, Literal) for src in passed)
                    and all(src == passed[0] for src in passed)):
                out.append(f"{qualified}({name}={passed[0].value!r})")
    return out


def test_scan_sees_keyword_positional_and_pass_through():
    tree = ast.parse("def f(a, b=1, *, c=2):\n    pass\n")
    params = {("m.f", "f"): list(_defaulted(tree.body[0], False)),
              ("m.g", "g"): [("c", None, NOT_LITERAL)]}
    assert params[("m.f", "f")] == [("b", 1, 1), ("c", None, 2)]
    g_passes_c = ([None], {"c": ("m.g", "c")})
    assert _unset(params, {"f": [([None], {}), g_passes_c]}) == [
        "m.f(b)", "m.f(c)", "m.g(c)"]
    assert _unset(params, {"f": [([None, None], {}), g_passes_c],
                           "g": [([], {"c": None})]}) == []


def test_scan_ignores_a_literal_equal_to_the_default():
    tree = ast.parse("def f(a, b=1.0, *, c=(2, 3)):\n    pass\n")
    params = {("m.f", "f"): list(_defaulted(tree.body[0], False))}
    same = ([None, Literal(1.0)], {"c": Literal((2, 3))})
    assert _unset(params, {"f": [same]}) == ["m.f(b)", "m.f(c)"]
    other = ([None, Literal(0.5)], {"c": Literal((2, 4))})
    assert _unset(params, {"f": [same, other]}) == []


def test_scan_counts_no_call_from_the_tests(tmp_path):
    params = {("m.f", "f"): [("b", 1, 1)]}
    for top, call in (("tests", "f(0, b=2)\n"), ("bench", "f(0)\n"), ("src", "g(f)\n")):
        (tmp_path / top).mkdir()
        (tmp_path / top / "use.py").write_text(call)
    assert _unset(params, _calls(tmp_path)) == ["m.f(b)"]
    (tmp_path / "bench" / "use.py").write_text("f(0, 2)\n")
    assert _unset(params, _calls(tmp_path)) == []


def test_every_defaulted_parameter_has_a_caller():
    missing = _unset(_public_parameters(), _calls())
    assert all(name in missing for name in KEPT_FOR_BENCH), missing
    missing = [name for name in missing if name not in KEPT_FOR_BENCH]
    assert not missing, ("defaulted parameters that no call in src/ or bench/ "
                         f"sets ({len(missing)}): " + ", ".join(missing))


def test_scan_flags_a_function_only_the_tests_refer_to(tmp_path):
    package = tmp_path / "src" / "rbdsde"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "def f():\n    pass\ndef g():\n    pass\ndef h():\n    pass\n"
        "def _private():\n    pass\n"
        "class K:\n    def used(self):\n        pass\n    def unused(self):\n        pass\n"
        "TRACED = ['f']\n")
    (package / "n.py").write_text("from .m import f\nh()\n")
    for top, use in (("tests", "f()\nK().unused()\n"), ("bench", "run(g)\nk.used()\n")):
        (tmp_path / top).mkdir()
        (tmp_path / top / "use.py").write_text(use)
    assert _unreferenced(tmp_path) == ["m.f", "m.K.unused"]


def test_every_public_function_has_a_caller():
    unreferenced = _unreferenced()
    assert not unreferenced, ("public functions and methods that nothing in src/ or bench/ "
                              f"refers to ({len(unreferenced)}): " + ", ".join(unreferenced))


def test_scan_flags_a_helper_argument_that_never_varies():
    params = {("m._h", "_h"): [("a", 0), ("b", 1)]}
    same_b = [([None, Literal(1)], {}), ([None], {"b": Literal(1)})]
    assert _constant_arguments(params, {"_h": same_b}) == ["m._h(b=1)"]
    assert _constant_arguments(params, {"_h": same_b + [([None], {})]}) == []
    assert _constant_arguments(params, {"_h": same_b + [([None, Literal(2)], {})]}) == []


def test_no_helper_argument_is_always_the_same_literal():
    constant = _constant_arguments(_helper_parameters(), _calls())
    assert not constant, ("private helper parameters that every call in src/ or bench/ "
                          f"passes as one literal ({len(constant)}): "
                          + ", ".join(constant))


def test_scan_flags_a_parameter_the_body_never_reads():
    tree = ast.parse("def f(a, b, *rest, c=1):\n    return a + (lambda: c)()\n"
                     "def _g(u):\n    pass\n"
                     "class K:\n"
                     "    def m(self, v, w):\n        return v\n"
                     "    @staticmethod\n    def s(self):\n        pass\n")
    assert _unread_parameters(tree, "m") == ["m.f(b)", "m.f(rest)", "m.K.m(w)", "m.K.s(self)"]


def test_every_parameter_is_read():
    unread = [name for path in sorted(PACKAGE.glob("*.py"))
              for name in _unread_parameters(ast.parse(path.read_text()), path.stem)]
    assert not unread, (f"public parameters that their function never reads ({len(unread)}): "
                        + ", ".join(unread))


def test_every_exported_name_resolves():
    for path in sorted(PACKAGE.glob("*.py")):
        name = "rbdsde" if path.stem == "__init__" else f"rbdsde.{path.stem}"
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} has no __all__"
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
