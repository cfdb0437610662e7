"""The package's modules import one another down a fixed order only, and
its errors reach the command line through one handler."""

import ast
import importlib
from pathlib import Path

import qshift
from qshift.rationals import QshiftError

# lowest first; the kernel package ``_qarith`` sits below all of them, and
# ``__init__`` (which re-exports everything) is exempt
ORDER = ["rationals", "plmaps", "ndsets", "reporting", "construction", "hfa",
         "sampling", "subgroups", "theorem", "serial", "properties", "cli"]
PACKAGE = Path(qshift.__file__).parent


def runtime_relative_imports(tree):
    """(line, module) for every ``from .x import`` that runs at import or
    call time: those inside ``if TYPE_CHECKING:`` are left out."""
    typing_only = {id(node)
                   for branch in ast.walk(tree)
                   if isinstance(branch, ast.If)
                   and ast.unparse(branch.test) == "TYPE_CHECKING"
                   for stmt in branch.body for node in ast.walk(stmt)}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and id(node) not in typing_only):
            targets = ([node.module] if node.module
                       else [alias.name for alias in node.names])
            out.extend((node.lineno, t.split(".")[0]) for t in targets)
    return out


def test_every_module_has_a_place_in_the_order():
    found = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert found == set(ORDER)


def test_imports_point_down_the_module_order():
    rank = {name: i for i, name in enumerate(ORDER)}
    rank["_qarith"] = -1
    upward = []
    for name in ORDER:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for line, target in runtime_relative_imports(tree):
            if rank[target] >= rank[name]:
                upward.append(f"{name}.py:{line} imports .{target}")
    assert upward == []


def test_type_checking_imports_are_left_out():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "from .ndsets import NDSet\n"
                     "if TYPE_CHECKING:\n"
                     "    from .serial import Recorded\n"
                     "def f():\n"
                     "    from . import cli\n")
    assert runtime_relative_imports(tree) == [(2, "ndsets"), (6, "cli")]


def test_subgroups_reexports_the_ndsets_fix_test():
    # a tracer that wraps subgroups.fix_violation must patch the object
    # the recursion's verifier calls
    from qshift import construction, ndsets, subgroups
    assert subgroups.fix_violation is ndsets.fix_violation
    assert construction.fix_violation is ndsets.fix_violation


def test_only_the_normalizing_value_classes_guard_setattr():
    # the classes whose constructors normalize on hot paths write their
    # own slots and immutability guard; every other record is a dataclass
    guarded = {node.name
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(item, ast.FunctionDef)
                       and item.name == "__setattr__" for item in node.body)}
    assert guarded == {"GeomTail", "NDSet", "PLMap", "Interval", "Atom",
                       "SetNode", "SeqNode"}


def test_cli_main_maps_every_refusal_in_one_handler():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(main)
                if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["QshiftError"]


def test_every_package_error_is_a_value_error_with_its_label_and_code():
    # the package defines one exception hierarchy
    modules = [importlib.import_module(f"qshift.{name}") for name in ORDER]
    defined = {f"{obj.__module__}.{obj.__name__}"
               for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("qshift.")}
    found, todo = {}, [QshiftError]
    while todo:
        cls = todo.pop()
        assert issubclass(cls, ValueError), cls
        found[f"{cls.__module__}.{cls.__name__}"] = (cls.label, cls.exit_code)
        todo.extend(cls.__subclasses__())
    assert found == {
        "qshift.rationals.QshiftError": ("input error", 2),
        "qshift.serial.SerializationError": ("input error", 2),
        "qshift.serial.TextMismatch": ("input error", 2),
        "qshift.rationals.LimitError": ("limit error", 2),
        "qshift.construction.EvacuationError": ("evacuation error", 1),
        "qshift.theorem.CertificateError": ("certificate error", 1),
    }
    assert defined == set(found)
