"""Import hygiene of the package, checked on its syntax trees.

No module in src/bifield imports a name it never uses (a name listed in the
module's __all__ counts as used: it is re-exported), every name in a
module's __all__ is defined or imported at module level, every
module-level private function is referenced somewhere in src/ or tests/
outside its own body, and every module-level public function and class,
and every public method and property of a module-level class, is
referenced by name somewhere in src/ outside its own body, the __all__
lists and __init__.py (a method or property as an attribute, obj.name),
or named in UNCALLED_PUBLIC with its reason. A refactor that moves work
elsewhere fails here if it leaves the old import or helper behind, an
export of a deleted function, or a public function or method that only the
tests call. The package's public names are pinned in PUBLIC_NAMES, so the
surface grows or shrinks only with that list. QuadratureSpec holds only its
three tolerances, and they are the quadrature config keys.

scipy stays out of the command line's import and its energy command: a
fresh process pays ~0.7 s to import it, in set-up or in the run. argparse,
gettext and locale stay out too: building argparse parsers cost a command
~5 ms, more than some commands' own work. The verify suites load only when
verify runs, so no other command compiles or imports them: only
cli._cmd_verify imports bifield.verify, and the integrators observables
and continuous import from currents only the fields and curls they
evaluate, none of the stencil helpers of the suites.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bifield
from bifield import cli

PACKAGE = Path(bifield.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).parent

PUBLIC_NAMES = (
    "ChargeConfig",
    "ConfigError",
    "ContinuousSource",
    "CurrentRows",
    "DomainViolation",
    "EnergyReport",
    "FieldError",
    "InversionFailure",
    "ModelParams",
    "NegativeArgument",
    "NoNonnegativeRoot",
    "PointCharge",
    "QuadratureError",
    "QuadratureSpec",
    "RadialPart",
    "SingularPoint",
    "__version__",
    "bump_source",
    "current_rows",
    "divergence_exponent_probe",
    "flux_charge",
    "free_charge_with_inner_spheres",
    "gaussian_source",
    "gridded_source",
    "invert_rows",
    "merge_sources",
    "newton_potential",
    "total_energy",
    "two_gaussian_source",
)

# public functions and methods that no code in src/ calls, each with the
# reason it stays
UNCALLED_PUBLIC = {
    "cli.py:serialize_config": "writes a RunConfig back as JSON, the inverse of parse_config",
    "models.py:ModelParams.custom": "the library-only constructor of a custom model, "
                                    "which a config file cannot describe",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_all(node: ast.AST) -> bool:
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def _exported(tree: ast.Module) -> set:
    """The strings of a module-level __all__ list."""
    for node in tree.body:
        if _is_all(node):
            return {elt.value for elt in node.value.elts}
    return set()


def _used_names(node: ast.AST, attributes_only: bool = False) -> set:
    """Every identifier read or written in node, and every attribute name;
    with attributes_only, the attribute names alone."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = _used_names(tree) | _exported(tree)
    assert sorted(set(bound) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_are_defined(path):
    tree = _tree(path)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    assert sorted(_exported(tree) - bound) == []


def _definitions(public: bool):
    """(module, name) of every module-level function, and with public every
    module-level class too, whose name is public or private as asked; with
    public also (module, "Class.method") of every public method and
    property of a module-level class."""
    kinds = (ast.FunctionDef, ast.ClassDef) if public else ast.FunctionDef
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, kinds) and node.name.startswith("_") != public:
                yield path.name, node.name
            if public and isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path.name, f"{node.name}.{sub.name}"


def _own_references(node: ast.AST, attributes_only: bool = False) -> set:
    """The names node references (_used_names), leaving out a function's or
    class's references to itself; in a class, each method's to itself."""
    if isinstance(node, ast.ClassDef):
        names = set().union(*(_used_names(sub, attributes_only)
                              for sub in node.bases + node.keywords + node.decorator_list))
        names = names.union(*(_own_references(sub, attributes_only) for sub in node.body))
    else:
        names = _used_names(node, attributes_only)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.discard(node.name)
    return names


def _references(paths, attributes_only: bool = False) -> set:
    """Names referenced in the files at paths, leaving out a top-level
    function's, class's or method's references to itself and the __all__
    lists; imported names count. With attributes_only, the names read as
    attributes (obj.name) alone: the only way a method is referenced."""
    refs = set()
    for path in paths:
        for node in _tree(path).body:
            if _is_all(node):
                continue
            refs |= _own_references(node, attributes_only)
            if isinstance(node, ast.ImportFrom) and not attributes_only:
                refs |= {alias.name for alias in node.names}
    return refs


def test_private_functions_are_referenced():
    refs = _references(MODULES + sorted(TESTS.glob("*.py")))
    dead = [f"{module}:{name}" for module, name in _definitions(public=False)
            if name not in refs]
    assert dead == []


def test_public_functions_are_referenced_in_src():
    src = [path for path in MODULES if path.name != "__init__.py"]
    refs, attributes = _references(src), _references(src, attributes_only=True)
    # a method or property counts only as an attribute: a local variable f
    # is no call of ModelParams.f
    uncalled = [f"{module}:{name}" for module, name in _definitions(public=True)
                if (name.partition(".")[2] not in attributes if "." in name else name not in refs)]
    assert sorted(uncalled) == sorted(UNCALLED_PUBLIC)


# what each integrator module takes from currents: its fields and the curls
# it evaluates, none of the stencil helpers the verify suites use;
# observables takes eh_rows because its pointwise density reads the state
# the sample command reads, from the same call
INTEGRATOR_CURRENTS = {
    "observables.py": {"eh_field", "eh_rows"},
    "continuous.py": {"_fd_rows", "_generic_electric_curl"},
}


def _imported_from(tree: ast.AST, module: str) -> set:
    """The names imported from a sibling module, by `from .module import`
    or `from bifield.module import` anywhere in tree."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, module), (0, f"bifield.{module}"))
            for alias in node.names}


@pytest.mark.parametrize("name", sorted(INTEGRATOR_CURRENTS))
def test_integrators_take_only_their_currents(name):
    assert _imported_from(_tree(PACKAGE / name), "currents") == INTEGRATOR_CURRENTS[name]


def test_only_the_verify_command_imports_the_suites():
    importers = []
    for path in MODULES:
        for node in _tree(path).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and (
                        (sub.level, sub.module) in ((1, "verify"), (0, "bifield.verify"))
                        or (sub.module in (None, "bifield") and any(
                            alias.name == "verify" for alias in sub.names))):
                    importers.append(f"{path.name}:{getattr(node, 'name', None)}")
                elif isinstance(sub, ast.Import) and any(
                        alias.name == "bifield.verify" for alias in sub.names):
                    importers.append(f"{path.name}:{getattr(node, 'name', None)}")
    assert importers == ["cli.py:_cmd_verify"]


def test_only_raise_first_raises_a_recorded_failure():
    # a code array turns into an exception in one place, errors.raise_first,
    # which raises the first failed row's exception as recorded: no other
    # function raises errors[...] or rewraps a failure as type(exc)(...)
    raisers = []
    for path in MODULES:
        for node in _tree(path).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Raise) and (
                        isinstance(sub.exc, ast.Subscript)
                        or (isinstance(sub.exc, ast.Call) and isinstance(sub.exc.func, ast.Call)
                            and getattr(sub.exc.func.func, "id", None) == "type")):
                    raisers.append(f"{path.name}:{getattr(node, 'name', None)}")
    assert raisers == ["errors.py:raise_first"]


@pytest.mark.parametrize("name", ["sources.py", "constitutive.py", "currents.py"])
def test_rows_modules_raise_only_config_errors(name):
    # the rows modules record a field error against its row and never raise
    # one: every raise there is config validation, a ValueError
    raised = [f"{name}:{node.lineno}" for node in ast.walk(_tree(PACKAGE / name))
              if isinstance(node, ast.Raise) and not (
                  isinstance(node.exc, ast.Call) and getattr(node.exc.func, "id", None) == "ValueError")]
    assert raised == []


def test_public_surface_is_pinned():
    assert tuple(bifield.__all__) == PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))


def test_quadrature_spec_holds_only_tolerances():
    # the quadrature geometry is the charge configuration's (cell_scale,
    # exclusion_radius and the outer flux sphere derived from them): no
    # radius comes back as a QuadratureSpec field or a config key
    fields = tuple(f.name for f in dataclasses.fields(bifield.QuadratureSpec))
    assert fields == ("rel_tol", "abs_tol", "max_subdivisions")
    assert cli._QUAD_KEYS == fields


def test_cli_import_and_rules_leave_numpy_polynomial_unloaded(tmp_path):
    # the Gauss-Legendre rules come from one eigh each: importing the command
    # line and building the rules of an energy and a charge run load neither
    # numpy.polynomial nor scipy
    charge = tmp_path / "charge.json"
    charge.write_text(json.dumps({"model": {"kind": "logarithmic"},
                                  "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1.0}]}))
    code = ("import sys, bifield.cli\n"
            "def loaded(): return sorted(m for m in sys.modules\n"
            "                            if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))\n"
            "print(loaded())\n"
            f"for cmd in ('energy', 'charge'): bifield.cli.main([cmd, '--config', {str(charge)!r}, "
            f"'--out-dir', {str(tmp_path)!r}])\n"
            "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert [line for line in out.stdout.splitlines() if line.startswith("[")] == ["[]", "[]"]
    assert (tmp_path / "energy.json").exists() and (tmp_path / "charge.report.json").exists()


def test_cli_leaves_scipy_unloaded(tmp_path):
    # scipy is imported by the gridded source only: not by the package, nor
    # by loading a radial source, nor by the energy command; the command
    # line is parsed without argparse and the gettext and locale it loads;
    # and neither the import nor a grid command loads the verify suites
    bump = tmp_path / "bump.json"
    bump.write_text(json.dumps({"model": {"kind": "classical"},
                                "continuous": {"shape": "bump", "total": 2.0, "radius": 1.5}}))
    charge = tmp_path / "charge.json"
    charge.write_text(json.dumps({"model": {"kind": "logarithmic"},
                                  "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1.0}]}))
    code = ("import sys, bifield.cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            f"bifield.cli.load_config({str(bump)!r})\n"
            "print(scipy())\n"
            f"bifield.cli.main(['energy', '--config', {str(charge)!r}, '--out-dir', {str(tmp_path)!r}])\n"
            "print(scipy())\n"
            "print(sorted({'argparse', 'gettext', 'locale', 'bifield.verify'} & set(sys.modules)))\n"
            f"bifield.cli.main(['continuous', '--config', {str(bump)!r}, '--out-dir', {str(tmp_path)!r}])\n"
            "print(sorted({'bifield.verify'} & set(sys.modules)) + scipy())\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert [line for line in out.stdout.split() if line.startswith("[")] == ["[]"] * 5
    assert (tmp_path / "continuous.csv").exists()
