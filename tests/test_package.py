"""The package surface: lazily run submodules and the public names of `altrings`."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altrings

SRC = str(Path(__file__).resolve().parent.parent / "src")

LIBRARY = ("algebra", "catalog", "errors", "jsonio", "liederiv",
           "linalg", "peirce", "report", "sampling", "structure")

# every name `altrings` exports, by the submodule that defines it
PUBLIC = {
    "algebra": ("Algebra", "Element", "associator", "check_alternative",
                "check_associative", "check_flexible", "commutator",
                "find_nonassociative_triple"),
    "catalog": ("ConstructionRecipe", "build", "canonical_idempotent", "direct_sum",
                "find_idempotent", "matrix_algebra", "octonion_algebra", "parse_recipe",
                "random_lie_derivation", "zorn"),
    "liederiv": ("CentralTerm", "DecompositionResult", "MapSpec", "SampleBudget",
                 "check_hypotheses", "check_lie_law", "compose", "decompose", "inner_f",
                 "normalize_at_idempotent", "split_diagonal"),
    "linalg": ("Matrix", "Subspace", "column_space", "kernel", "rank", "rref", "solve"),
    "peirce": ("PeirceContext", "check_conditions", "make_context",
               "verify_offdiag_centralizer", "verify_prop_spade_club", "verify_relations"),
    "structure": ("IdempotentKind", "PrimalityResult", "StructureReport", "analyze",
                  "center", "centralizer", "check_prime", "commutator_subspace",
                  "derivation_algebra", "is_derivation", "nucleus", "verify_idempotent"),
}

# Runs in a fresh interpreter.  `type(module) is types.ModuleType` reads the
# class without an attribute lookup, so it does not run a registered module.
LAZY_PROBE = """
import contextlib, io, json, sys, types

def executed():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("altrings.") and type(module) is types.ModuleType)

import altrings.cli as cli
registered = sorted(name for name in sys.modules if name.startswith("altrings."))
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["analyze", "--json", sys.argv[1]])
after_analyze = executed()
sys.modules["altrings.peirce"].make_context
print(json.dumps({"code": code, "report": json.loads(out.getvalue()),
                  "registered": registered, "after_analyze": after_analyze,
                  "after_read": executed()}))
"""


# Runs the commands given as a JSON list of argv lists in one fresh
# interpreter; after each, records the exit code, the executed altrings
# modules and which of the code-generation and argument-parsing modules are
# loaded.
COMMANDS_PROBE = """
import contextlib, io, json, sys, types
import altrings.cli as cli

seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append({"code": code,
                 "executed": sorted(name for name, module in sys.modules.items()
                                    if name.startswith("altrings.")
                                    and type(module) is types.ModuleType),
                 "loaded": [name for name in ("dataclasses", "inspect", "argparse", "gettext",
                                         "locale") if name in sys.modules]})
print(json.dumps(seen))
"""


def _probe(script: str, *args: str, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd,
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_cli_runs_only_the_modules_a_command_uses(tmp_path):
    path = tmp_path / "zorn.json"
    altrings.jsonio.save_algebra(altrings.zorn(), path)
    probe = _probe(LAZY_PROBE, str(path))
    assert probe["code"] == 0
    assert probe["report"]["derivation_dim"] == 14
    # every module the benchmark tracer wraps is in sys.modules after `import altrings.cli`
    assert set(probe["registered"]) >= {f"altrings.{m}" for m in LIBRARY + ("cli",)}
    executed = set(probe["after_analyze"])
    assert {"altrings.cli", "altrings.jsonio", "altrings.structure"} <= executed
    assert not executed & {"altrings.liederiv", "altrings.peirce", "altrings.catalog",
                           "altrings.sampling", "altrings.report"}
    # reading an attribute runs the module
    assert "altrings.peirce" in probe["after_read"]
    assert "altrings.liederiv" not in probe["after_read"]


def test_public_names_are_the_submodule_objects():
    for module, names in PUBLIC.items():
        source = importlib.import_module(f"altrings.{module}")
        assert getattr(altrings, module) is source
        for name in names:
            assert getattr(altrings, name) is getattr(source, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from altrings import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {name for names in PUBLIC.values() for name in names}
    assert sorted(altrings.__all__) == sorted(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        altrings.no_such_name
    with pytest.raises(ImportError):
        exec("from altrings import no_such_name", {})


def test_make_runs_no_lie_split_module(tmp_path):
    """`make` builds and saves an algebra; the Lie-split modules and `report`
    stay unexecuted."""
    [make] = _probe(COMMANDS_PROBE, json.dumps([["make", "zorn", "-o", "zorn.json"]]),
                    cwd=tmp_path)
    assert make["code"] == 0
    assert "altrings.catalog" in make["executed"]
    assert not {"altrings.liederiv", "altrings.peirce", "altrings.report"} & set(make["executed"])


def test_no_command_imports_dataclasses(tmp_path):
    """The records are built without `dataclasses`, and so without `inspect`,
    and the arguments are read without `argparse`, and so without `gettext` or
    `locale`: no command pays for importing them."""
    algebra = altrings.zorn()
    altrings.jsonio.save_mapspec(
        altrings.random_lie_derivation(algebra, altrings.SampleBudget(seed=1)),
        tmp_path / "map.json")
    e1 = "1,0,0,0,0,0,0,0"
    commands = [
        ["make", "zorn", "-o", "zorn.json"],
        ["analyze", "--json", "zorn.json"],
        ["peirce", "--json", "zorn.json", "--idempotent", e1],
        ["decompose", "--json", "zorn.json", "--idempotent", e1, "--map", "map.json",
         "-o", "split"],
        ["fuzz", "zorn", "--trials", "1", "--json"],
    ]
    seen = _probe(COMMANDS_PROBE, json.dumps(commands), cwd=tmp_path)
    for argv, after in zip(commands, seen):
        assert after["code"] == 0, argv
        assert after["loaded"] == [], argv
    assert "altrings.liederiv" in seen[-1]["executed"]
