"""The public surface of the package."""

import ast
import dataclasses
import enum
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import typing

import pytest

import cropgate

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = ["cropgate"] + [f"cropgate.{info.name}"
                          for info in pkgutil.iter_modules(cropgate.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_error_derives_from_the_package_base(name):
    module = importlib.import_module(name)
    errors = [getattr(module, attr) for attr in module.__all__
              if isinstance(getattr(module, attr), type)
              and issubclass(getattr(module, attr), Exception)]
    assert all(issubclass(error, cropgate.CropgateError) for error in errors)


def test_no_object_is_exported_under_two_names():
    """Each public object is listed once, by the module that defines it, and
    is imported from there. Strings and numbers are exempt: equal constants
    may be one interned object."""
    names = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            value = getattr(module, attr)
            if not isinstance(value, (str, int, float)):  # bool is an int
                names.setdefault(id(value), []).append(f"{name}.{attr}")
    assert [listed for listed in names.values() if len(listed) > 1] == []


def test_error_classes_carry_the_exit_policy():
    from cropgate.factors import FactorFileError, MissingFlowError
    from cropgate.farmspec import FarmValidationError, UnknownCropError
    from cropgate.sections import SectionSyntaxError
    assert issubclass(cropgate.CropgateError, ValueError)
    assert (cropgate.CropgateError.exit_code, cropgate.InputError.exit_code) \
        == (1, 2)
    syntax = SectionSyntaxError("bad", 3, 4)
    assert (syntax.exit_code, syntax.prefix) == (2, "syntax error: ")
    assert FactorFileError.prefix == ""
    assert FarmValidationError.prefix == ""
    # both KeyError kinds print their message as it is, without quotes
    assert isinstance(MissingFlowError("x"), KeyError)
    assert str(MissingFlowError("x")) \
        == "no factor record for flow 'x'"
    assert isinstance(UnknownCropError("no crop"), KeyError)
    assert str(UnknownCropError("no crop")) == "no crop"


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _cropgate_modules_after(code: str) -> set[str]:
    """The cropgate modules a fresh interpreter has loaded after ``code``."""
    return {name for name in _modules_after(code)
            if name.startswith("cropgate")}


def _importtime_modules(*args: str) -> list[str]:
    """The modules ``python -X importtime <args>`` reports importing."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def test_bare_import_loads_no_submodule():
    assert _cropgate_modules_after("import cropgate") == {"cropgate"}


def test_star_import_binds_the_package_names_and_loads_no_submodule():
    probe = ("import sys\nnames = {}\nexec('from cropgate import *', names)\n"
             "print(*sorted(names.keys() - {'__builtins__'}))\n"
             "print(*sorted(m for m in sys.modules if m.startswith('cropgate')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    names, modules = proc.stdout.splitlines()
    assert names.split() == ["CropgateError", "GASES", "InputError",
                             "MAX_HORIZON_YEARS", "__version__",
                             "horizon_problem"]
    assert modules.split() == ["cropgate"]


def test_submodules_resolve_on_first_use():
    loaded = _cropgate_modules_after(
        "import cropgate\n"
        "assert cropgate.reports.__name__ == 'cropgate.reports'\n"
        "assert cropgate.units.__name__ == 'cropgate.units'\n"
        "assert not hasattr(cropgate, 'no_such_name')")
    assert {"cropgate.reports", "cropgate.units"} <= loaded


def test_the_package_reexports_no_name_of_a_module():
    loaded = _cropgate_modules_after(
        "import sys, cropgate\n"
        "assert not hasattr(cropgate, 'FarmModel')\n"
        "assert 'cropgate.farmspec' not in sys.modules\n"
        "assert cropgate.farmspec.FarmModel.__module__ == 'cropgate.farmspec'")
    assert "cropgate.farmspec" in loaded


def _readme_library_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _docstring_block() -> str:
    lines = cropgate.__doc__.split("Typical use::\n", 1)[1].splitlines()
    block = []
    for line in lines:
        if line and not line.startswith("    "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


@pytest.mark.parametrize("block,printed", [
    (_readme_library_block, 3), (_docstring_block, 1),
], ids=["readme", "docstring"])
def test_documented_library_snippets_run_as_written(block, printed):
    proc = subprocess.run([sys.executable, "-c", block()], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len([float(line) for line in proc.stdout.split()]) == printed


def test_importtime_lists_lazily_loaded_submodules():
    assert "cropgate.assess" in _importtime_modules(
        "-c", "import cropgate; cropgate.assess")


# what each command loads of cropgate: validate reads the farm only, sweep
# adds its economics and reports, assess and compare load every module
_FARM_READER = {"cropgate", "cropgate.cli", "cropgate.farmspec",
                "cropgate.sections", "cropgate.units"}
_EVERY_MODULE = _FARM_READER | {
    "cropgate.assess", "cropgate.economics", "cropgate.factors",
    "cropgate.impact", "cropgate.inventory", "cropgate.reports"}


@pytest.mark.parametrize("command,expected", [
    (None, {"cropgate", "cropgate.cli"}),
    ("validate", _FARM_READER),
    ("sweep --range 0.1:0.9:0.1 --out {out}",
     _FARM_READER | {"cropgate.economics", "cropgate.reports"}),
    ("assess --crop rye --out {out}", _EVERY_MODULE),
    ("compare --out {out}", _EVERY_MODULE),
], ids=["import", "validate", "sweep", "assess", "compare"])
def test_each_command_loads_only_its_modules(farm_path, tmp_path, command,
                                             expected):
    code = "import cropgate.cli"
    if command is not None:
        argv = command.format(out=tmp_path).split() + ["--farm", farm_path]
        code = f"from cropgate.cli import main\nassert main({argv!r}) == 0"
    assert _cropgate_modules_after(code) == expected


@pytest.mark.parametrize("command", [
    "validate", "assess --crop rye --out {out}", "compare --out {out}",
    "sweep --range 0.1:0.9:0.1 --out {out}"], ids=lambda c: c.split()[0])
def test_commands_load_no_argparse(farm_path, tmp_path, command):
    """argparse, with gettext and locale, took about 7 ms of a command."""
    argv = command.format(out=tmp_path).split() + ["--farm", farm_path]
    code = f"from cropgate.cli import main\nassert main({argv!r}) == 0"
    unwanted = {"argparse", "gettext", "locale"}
    assert not unwanted & _modules_after(code)
    assert not unwanted & set(_importtime_modules("-m", "cropgate.cli",
                                                  *argv))


def test_no_named_tuple_field_type_is_a_string():
    """A string or ForwardRef annotation costs typing a compile each time
    the class is made."""
    strings = [f"{cls.__qualname__}.{field}"
               for name in MODULES
               for cls in vars(importlib.import_module(name)).values()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and hasattr(cls, "_fields") and cls.__module__ == name
               for field, annotation in cls.__annotations__.items()
               if isinstance(annotation, (str, typing.ForwardRef))]
    assert strings == []


def test_validate_loads_no_dataclasses(farm_path):
    """Reading a farm needs no dataclass: importing dataclasses also loads
    inspect, tokenize and linecache."""
    argv = ["validate", "--farm", farm_path]
    code = f"from cropgate.cli import main\nassert main({argv!r}) == 0"
    assert not {"dataclasses", "inspect"} & _modules_after(code)
    logged = _importtime_modules("-m", "cropgate.cli", *argv)
    assert "cropgate.farmspec" in logged
    assert not {"dataclasses", "inspect"} & set(logged)


@pytest.mark.parametrize("argv,message", [
    (["assess", "--crop", "rye", "--horizon", "0"],
     "error: --horizon must be at least 1 year\n"),
    (["compare", "--horizon", "1001"],
     "error: --horizon must be at most 1000 years\n"),
], ids=["assess", "compare"])
def test_bad_horizon_fails_before_the_engine_loads(farm_path, argv, message):
    argv = argv + ["--farm", farm_path]
    code = ("import contextlib, io\nfrom cropgate.cli import main\n"
            "err = io.StringIO()\nwith contextlib.redirect_stderr(err):\n"
            f"    assert main({argv!r}) == 2\n"
            f"assert err.getvalue() == {message!r}, err.getvalue()")
    assert _cropgate_modules_after(code) == {"cropgate", "cropgate.cli"}


def _importable(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


# what the reports module loads only where CPython's own modules are missing
_OPENSSL_AND_JSON = {"hashlib", "_hashlib", "json"}
_WRITING_COMMANDS = ["assess --crop rye", "compare",
                     "sweep --range 0.1:0.9:0.1"]


@pytest.mark.skipif(not (_importable("_sha2") or _importable("_sha256")),
                    reason="no built-in SHA-256 module")
@pytest.mark.parametrize("command", _WRITING_COMMANDS,
                         ids=["assess", "compare", "sweep"])
def test_writing_commands_load_neither_openssl_nor_json(farm_path, tmp_path,
                                                        command):
    argv = command.split() + ["--farm", farm_path, "--out", str(tmp_path)]
    code = f"from cropgate.cli import main\nassert main({argv!r}) == 0"
    added = _modules_after(code) - _modules_after("pass")
    assert "cropgate.reports" in added
    assert not _OPENSSL_AND_JSON & added
    logged = _importtime_modules("-m", "cropgate.cli", *argv)
    assert "cropgate.reports" in logged
    assert not _OPENSSL_AND_JSON & set(logged)


_BLOCK_BUILTINS = ("import sys\n"
                   "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                   "sys.modules['_json'] = None\n")


@pytest.mark.parametrize("command", _WRITING_COMMANDS[:2],
                         ids=["assess", "compare"])
def test_fallback_imports_write_the_same_bytes(farm_path, factors_path,
                                               tmp_path, command):
    """With the built-in hash and escaper blocked, reports takes hashlib's
    SHA-256 and json's Python escaper, and writes the same files."""
    trees = {}
    for name, prelude in (("builtin", ""), ("fallback", _BLOCK_BUILTINS)):
        out = tmp_path / name
        argv = command.split() + ["--farm", farm_path, "--out", str(out)]
        code = (prelude + "from cropgate.cli import main\n"
                f"assert main({argv!r}) == 0\n")
        if prelude:  # and the fallbacks are what reports took
            code += ("import hashlib, json.encoder\n"
                     "from cropgate import reports\n"
                     "assert reports.sha256 is hashlib.sha256\n"
                     "assert reports._quote is "
                     "json.encoder.py_encode_basestring_ascii\n")
        _modules_after(code)
        trees[name] = {path.name: path.read_bytes()
                       for path in sorted(out.iterdir())}
    assert len(trees["builtin"]) == (2 if command == "compare" else 4)
    assert trees["fallback"] == trees["builtin"]
    report = next(data for name, data in trees["fallback"].items()
                  if name.endswith(".json"))
    manifest = json.loads(report)["manifest"]
    for key, path in (("farm_sha256", farm_path),
                      ("factors_sha256", factors_path)):
        with open(path, "rb") as handle:
            assert manifest[key] == hashlib.sha256(handle.read()).hexdigest()


# Callers copy these with their _replace: the tests build variant crops,
# farms and comparisons from the bundled ones.
NAMEDTUPLES = {
    "CropPlan": lambda model, pair: model.crop("rye"),
    "FarmModel": lambda model, pair: model,
    "CostBlock": lambda model, pair: model.crop("rye").costs,
    "FertilizerApplication":
        lambda model, pair: model.crop("rye").fertilizations[0],
    "HerbicideApplication":
        lambda model, pair: model.crop("tall_wheatgrass").herbicides[0],
    "PairComparison": lambda model, pair: pair,
}

# The benchmark's self-check passes these to dataclasses.replace, so they
# stay dataclasses until it copies them another way.
KEPT_DATACLASSES = {
    "EconomicBalance": lambda model, pair: pair.first.economics,
    "GwpBreakdown": lambda model, pair: pair.first.gwp,
    "EnergyBreakdown": lambda model, pair: pair.first.energy,
    "CropAssessment": lambda model, pair: pair.first,
}


@pytest.mark.parametrize("name", sorted(NAMEDTUPLES))
def test_replace_method_works_on_the_namedtuples(name, farm_model,
                                                 factor_db):
    pair = cropgate.assess.compare_pair(farm_model, factor_db)
    value = NAMEDTUPLES[name](farm_model, pair)
    assert type(value).__name__ == name
    assert not dataclasses.is_dataclass(value)
    first, last = value._fields[0], value._fields[-1]
    copy = value._replace(**{first: getattr(value, first)})
    assert copy == value and copy is not value
    marker = object()
    changed = value._replace(**{last: marker})
    assert getattr(changed, last) is marker and changed[:-1] == value[:-1]


@pytest.mark.parametrize("name", sorted(KEPT_DATACLASSES))
def test_replace_works_on_the_kept_dataclasses(name, farm_model, factor_db):
    pair = cropgate.assess.compare_pair(farm_model, factor_db)
    value = KEPT_DATACLASSES[name](farm_model, pair)
    assert type(value).__name__ == name
    first = dataclasses.fields(value)[0].name
    copy = dataclasses.replace(value, **{first: getattr(value, first)})
    assert copy == value and copy is not value


# where a read of an Enum class attribute is paid per flow, per schedule
# entry or per key: on Python 3.10 and 3.11 EnumType.__getattr__ makes each
# such read several times the cost of a global, so a member is read once
_PER_RECORD_NODES = (ast.For, ast.While, ast.ListComp, ast.SetComp,
                     ast.DictComp, ast.GeneratorExp)


def _enum_reads_per_record(module) -> list[str]:
    """Each ``<Enum>.<attr>`` read of ``module`` inside a loop, inside a
    comprehension or in ``_spread``, as ``<line>: <Enum>.<attr>``."""
    enums = {name for name, value in vars(module).items()
             if isinstance(value, type) and issubclass(value, enum.Enum)}
    found = []

    def visit(node, per_record):
        per_record = per_record or isinstance(node, _PER_RECORD_NODES) or (
            isinstance(node, ast.FunctionDef) and node.name == "_spread")
        if (per_record and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in enums):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, per_record)

    with open(module.__file__, encoding="utf-8") as handle:
        visit(ast.parse(handle.read()), False)
    return found


@pytest.mark.parametrize("name", ["cropgate.inventory", "cropgate.impact"])
def test_enum_members_are_not_read_per_record(name):
    module = importlib.import_module(name)
    assert issubclass(module.Phase, enum.Enum)  # a class the walk checks
    assert _enum_reads_per_record(module) == []


def _module_level(body):
    """The statements run at import: ``body`` and the branches of its ``if``
    and ``try`` statements, not the bodies of functions or classes."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for branch in ("body", "orelse", "finalbody"):
                yield from _module_level(getattr(node, branch, ()))
            for handler in getattr(node, "handlers", ()):
                yield from _module_level(handler.body)


def test_every_module_level_import_is_used():
    """A name imported at module level is read in its module or exported
    through ``__all__``: an import a refactor left behind fails here."""
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        with open(module.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        # a quoted annotation reads the names in it
        quoted = [ast.parse(note.value, mode="eval")
                  for node in ast.walk(tree)
                  for note in (getattr(node, "annotation", None),
                               getattr(node, "returns", None))
                  if isinstance(note, ast.Constant)
                  and isinstance(note.value, str)]
        used = {node.id for part in (tree, *quoted) for node in ast.walk(part)
                if type(node) is ast.Name} | set(module.__all__)
        for node in _module_level(tree.body):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in used]
    assert unused == []


def _names_read(path: str) -> set[str]:
    """The names a file reads, imports or takes as attributes. A name read
    inside its own definition does not count: a recursive call does not
    keep a function in use, nor its own methods a class."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    read = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            name = None
        if name is not None and name not in defining:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return read


def test_every_exported_name_is_run_by_the_package_or_a_demo():
    """Each name in an ``__all__`` is read by some module of the package or
    by a demo, outside its own definition: the public surface is what the
    commands and the demos run. The ``__all__`` lists are strings, which do
    not count. Reference code that only tests use lives in
    ``tests/oracles.py``."""
    demos = os.path.join(ROOT, "demos")
    paths = [importlib.import_module(name).__file__ for name in MODULES]
    paths += [os.path.join(demos, name) for name in sorted(os.listdir(demos))
              if name.endswith(".py")]
    read = set().union(*map(_names_read, paths))
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in importlib.import_module(name).__all__
              if attr not in read]
    assert unused == []


def test_every_key_a_reader_takes_is_documented(monkeypatch, farm_path,
                                                factors_path):
    """Each key a section reader looks up, present in the file or not, is
    named in backticks in docs/formats.md. Price keys are named by their
    shape: ``<crop>_grain`` and ``<crop>_straw``."""
    from cropgate.factors import load_factor_db
    from cropgate.farmspec import parse_farm_document
    from cropgate.sections import SectionReader

    taken = set()
    take = SectionReader._take

    def spy(self, key, *args):
        taken.add("<crop>" + key[key.rindex("_"):]
                  if self.name == "prices" and key != "straw"
                  else key)
        return take(self, key, *args)

    monkeypatch.setattr(SectionReader, "_take", spy)
    with open(farm_path, encoding="utf-8") as handle:
        farm = handle.read()
    with open(factors_path, encoding="utf-8") as handle:
        load_factor_db(handle.read())
    parse_farm_document(farm)
    # biomass_yield is read only where straw_yield is absent
    parse_farm_document(farm.replace("straw_yield =", "biomass_yield =", 1))
    docs = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "formats.md")
    with open(docs, encoding="utf-8") as handle:
        text = handle.read()
    assert "biomass_yield" in taken and "<crop>_grain" in taken
    assert sorted(key for key in taken if f"`{key}`" not in text) == []
