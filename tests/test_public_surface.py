"""Public-surface audit: every name a module exports is used by the package.

A name in a module's ``__all__`` that the module defines, but that no code
under ``src/riemannwaves`` loads (as a name or an attribute, matched by
name), is surface that only tests use.  The KEEP names are exempt, each for
the reason it states; an exemption that no longer applies (package code
loads the name, or no module defines it) fails the audit, so the list can
only shrink.  Reference forms and audit kernels that only tests run live
in ``tests/oracles.py``, and no package module imports from the tests.

The same holds for every function and method defined under
``src/riemannwaves``, nested ones included (dunders excepted): one that no
package code loads by name or as an attribute is reached only by tests,
unless it is a KEEP name.  And for the fields of every ``@dataclass``: a
field that no package code loads as an attribute (or names in a
``getattr`` call) is a setting nothing reads, apart from the KEEP_FIELDS.
Attributes are matched by name, so a field shares its reads with every
other attribute of the same name.

The package's top-level ``__all__`` gets the same audit: a class or
function that ``__init__.py`` re-exports must be loaded by package code
outside ``__init__.py``, or be a KEEP name, so a re-export cannot outlive
its last package use.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "riemannwaves"

KEEP = {
    "__version__": "package metadata, read by installers and users",
    "determinant": "criteria 01 and 03 (the dispersion and Faddeev determinant audits), "
                   "and a layer the benchmark tracer patches as linalg.determinant",
}

KEEP_FIELDS = {
    "FamilySpec.closed_form": "reference oracle of the closed-form agreement tests",
    "FamilySpec.profile_jac": "df/dr alone, the profile jet's second part: the benchmark "
                              "tracer wraps it on every built spec, and the tests read it",
}


def _trees():
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _loaded(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_is_loaded_in_the_package():
    trees = _trees()
    loaded = set().union(*(_loaded(tree) for tree in trees.values()))
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in sorted(_exports(tree) & _defined(tree))
              if name not in loaded and name not in KEEP]
    assert unused == [], "exported but used by no package code (only tests?): " + ", ".join(unused)


def test_every_package_reexport_is_loaded_outside_the_init():
    trees = _trees()
    init = trees.pop("__init__.py")
    loaded = set().union(*(_loaded(tree) for tree in trees.values()))
    reexported = {alias.asname or alias.name for node in init.body
                  if isinstance(node, ast.ImportFrom) and node.module for alias in node.names}
    assert reexported <= _exports(init), sorted(reexported - _exports(init))
    unused = sorted(name for name in reexported if name not in loaded and name not in KEEP)
    assert unused == [], "re-exported but used by no package code: " + ", ".join(unused)


def test_every_function_and_method_is_loaded_in_the_package():
    trees = _trees()
    loaded = set().union(*(_loaded(tree) for tree in trees.values()))
    unused = [f"{module}:{node.lineno}: {node.name}" for module, tree in trees.items()
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in loaded and node.name not in KEEP]
    assert unused == [], "defined but loaded by no package code (only tests?): " + ", ".join(unused)


def test_keep_names_are_exported():
    exported = set().union(*(_exports(tree) for tree in _trees().values()))
    assert set(KEEP) <= exported, sorted(set(KEEP) - exported)


def test_every_keep_exemption_still_applies():
    trees = _trees()
    defined = set().union(*(_defined(tree) for tree in trees.values()))
    loaded = set().union(*(_loaded(tree) for tree in trees.values()))
    assert set(KEEP) <= defined, "KEEP names no module defines: " + ", ".join(sorted(set(KEEP) - defined))
    assert not set(KEEP) & loaded, "KEEP names package code loads: " + ", ".join(sorted(set(KEEP) & loaded))


def test_no_package_module_imports_from_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    bad = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            bad += [f"{module}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] in test_modules]
    assert bad == [], "package code imports test modules: " + ", ".join(bad)


def _is_dataclass(node):
    if not isinstance(node, ast.ClassDef):
        return False
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _dataclass_fields(trees):
    """The "Class.field" name of every annotated field of every @dataclass under src/."""
    return [f"{cls.name}.{node.target.id}" for tree in trees.values() for cls in ast.walk(tree)
            if _is_dataclass(cls) for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _attributes_read(tree):
    """Attribute names loaded, plus the string constants passed to getattr."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            read.add(node.args[1].value)
    return read


def test_every_dataclass_field_is_read_in_the_package():
    trees = _trees()
    read = set().union(*(_attributes_read(tree) for tree in trees.values()))
    fields = _dataclass_fields(trees)
    assert set(KEEP_FIELDS) <= set(fields), sorted(set(KEEP_FIELDS) - set(fields))
    unread = [name for name in fields
              if name.split(".")[1] not in read and name not in KEEP_FIELDS]
    assert unread == [], "dataclass fields no package code reads: " + ", ".join(unread)


def _calls(tree):
    """(enclosing function names, call node) for every call in a module."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, ast.FunctionDef) else scope
            if isinstance(child, ast.Call):
                yield scope, child
            yield from walk(child, inner)
    yield from walk(tree, ())


def test_family_spec_is_built_only_in_make_family():
    # make_family adds the id, the parameters and the gas to a builder's fields
    built = [(module, scope) for module, tree in _trees().items() for scope, call in _calls(tree)
             if isinstance(call.func, ast.Name) and call.func.id == "FamilySpec"]
    assert built == [("catalog/registry.py", ("make_family",))], built


def test_no_package_call_passes_n_waves():
    # FamilySpec derives n_waves from its wave_list
    passed = [f"{module}:{call.lineno}" for module, tree in _trees().items()
              for _, call in _calls(tree) if any(kw.arg == "n_waves" for kw in call.keywords)]
    assert passed == [], passed
