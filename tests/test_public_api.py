"""Every public name and every optional parameter has a caller outside the tests.

The package namespace re-exports nothing: its only public names are its
submodules, so each public name lives in exactly one module.

A name in a module's ``__all__`` must be read somewhere in ``src/`` or
``scripts/``: as a plain name or as an attribute, in its own module or
another.  Its definition, its ``__all__`` entry and its imports do not
count.  The few names that only the benchmark reads are allowlisted
with their reason.
Each public method and property of a public class must be read as an
attribute there.

A parameter with a default, of a public function, of a public method of
a public class, or of a public class's constructor, must be passed in
some call in ``src/`` or ``scripts/``: by keyword, or by a position at
or past its own.  Calls are matched by the called name alone, and a call
with ``*args`` or ``**kwargs`` counts as passing every parameter.  A
default that no caller overrides is a constant, and belongs in the code.

The same rule holds for the command line: a config key that only tests
set is a constant.  Every key some command accepts must be set in
``scripts/`` or ``bench/``: on a ``key = value`` line of a config text,
as a ``"key":`` dict key, or as a ``--key`` flag.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import prodest
from prodest.cli import _ALLOWED_KEYS

ROOT = Path(__file__).resolve().parents[1]

# Public names that no code in src/ or scripts/ reads, and why.
UNREAD_ALLOWED = {
    "oracle.estimator_distribution_exact": "the perm-exact benchmark workload's exact oracle",
}

# Optional parameters that no call in src/ or scripts/ passes, and why.
UNSET_ALLOWED = {
    "cli.main(argv)": "the entry point; the console script calls it with none",
}

# Config keys that no script or benchmark sets, and why.
KEYS_UNSET_ALLOWED = {
    "fixture": "the finite test problems of the oracle; the scripts run the paper's models",
    "max_particles": "a user's work cap on particle tuning, for runs larger than its default",
    "unit_noise": "picks the g-and-k data law under which the ABC target is the likelihood",
}


def _trees():
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]:
        yield ast.parse(path.read_text(), str(path))


def _public_modules():
    for info in pkgutil.iter_modules(prodest.__path__):
        yield info.name, importlib.import_module(f"prodest.{info.name}")


def _names_read():
    """Names read in src/ and scripts/: (as variables, as attributes)."""
    variables, attributes = set(), set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                variables.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return variables, attributes


def _calls_by_name():
    """Every call in src/ and scripts/, keyed by the called name."""
    calls = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _callables(module):
    """``(label, called name, signature)`` of each public callable of a module."""
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, name, inspect.signature(obj)
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            yield name, name, inspect.signature(obj)
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", attr, inspect.signature(getattr(obj, attr))
                elif inspect.isfunction(member):
                    signature = inspect.signature(member)
                    params = list(signature.parameters.values())[1:]  # drop self
                    yield f"{name}.{attr}", attr, signature.replace(parameters=params)


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _public_classes():
    """``(label, class)`` of each public class that is not an exception."""
    for module_name, module in _public_modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield f"{module_name}.{name}", obj


def test_the_package_namespace_holds_only_its_submodules():
    submodules = {name for name, _ in _public_modules()}
    public = {name for name in vars(prodest) if not name.startswith("_")}
    assert public == submodules, (
        f"names the package itself exports: {sorted(public - submodules)}"
    )


def test_every_public_name_has_a_caller_outside_tests():
    variables, attributes = _names_read()
    read = variables | attributes
    unused = [
        f"{module_name}.{name}"
        for module_name, module in _public_modules()
        for name in getattr(module, "__all__", ())
        if name not in read
    ]
    assert sorted(unused) == sorted(UNREAD_ALLOWED), (
        f"public names that only tests use: {sorted(set(unused) - set(UNREAD_ALLOWED))}; "
        f"allowlisted but now read: {sorted(set(UNREAD_ALLOWED) - set(unused))}"
    )


_DESCRIPTORS = (property, classmethod, staticmethod)


def test_every_public_method_and_property_is_read_outside_tests():
    _, attributes = _names_read()
    unused = [
        f"{label}.{attr}"
        for label, cls in _public_classes()
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, _DESCRIPTORS))
        and attr not in attributes
    ]
    assert not unused, f"public methods and properties that only tests use: {unused}"


def test_every_optional_parameter_is_passed_outside_tests():
    calls = _calls_by_name()
    unset = []
    for module_name, module in _public_modules():
        for label, called, signature in _callables(module):
            for position, param in enumerate(signature.parameters.values()):
                if param.default is param.empty:
                    continue
                if param.kind is param.KEYWORD_ONLY:
                    position = None
                if not any(_passes(call, position, param.name) for call in calls.get(called, ())):
                    unset.append(f"{module_name}.{label}({param.name})")
    assert sorted(unset) == sorted(UNSET_ALLOWED), (
        f"optional parameters no caller in src/ or scripts/ sets: "
        f"{sorted(set(unset) - set(UNSET_ALLOWED))}; "
        f"allowlisted but now set: {sorted(set(UNSET_ALLOWED) - set(unset))}"
    )


def _config_keys_set():
    """Keys set in scripts/ and bench/ by a config line, a dict key or a flag."""
    keys = set()
    for directory in ("scripts", "bench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Dict):
                    keys.update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    keys.update(re.findall(r"^\s*(\w+)\s*=", node.value, re.MULTILINE))
                    keys.update(
                        flag.replace("-", "_") for flag in re.findall(r"--([\w-]+)", node.value)
                    )
    return keys


def test_every_config_key_is_set_outside_tests():
    accepted = set().union(*_ALLOWED_KEYS.values())
    unset = accepted - _config_keys_set()
    assert unset == set(KEYS_UNSET_ALLOWED), (
        f"config keys no script or benchmark sets: {sorted(unset - set(KEYS_UNSET_ALLOWED))}; "
        f"allowlisted but now set: {sorted(set(KEYS_UNSET_ALLOWED) - unset)}"
    )
