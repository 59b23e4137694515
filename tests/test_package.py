"""The package's public names: every name in `__all__` exists, so a deleted
export that stays listed fails here rather than in `from orthofix import *`.

`import orthofix` imports no submodule; each public name is resolved from
its home module on first use, and each module imports on its own."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthofix
from orthofix import cli, corpus, kinds, oracle, relational

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "orthofix").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in orthofix.__all__ if not hasattr(orthofix, name)]
    assert missing == []
    assert len(set(orthofix.__all__)) == len(orthofix.__all__)
    namespace: dict = {}
    exec("from orthofix import *", namespace)
    assert set(orthofix.__all__) <= namespace.keys()


def test_every_public_name_is_its_home_modules_object():
    for name in orthofix.__all__:
        value = getattr(orthofix, name)
        assert value.__module__ == f"orthofix.{orthofix._EXPORTS[name]}", name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_moved_names_keep_their_old_homes():
    assert oracle.brute_force_fixed_points is relational.brute_force_fixed_points
    assert corpus.list_cases is kinds.list_cases


def test_dir_covers_all_and_unknown_names_raise():
    assert set(orthofix.__all__) <= set(dir(orthofix))
    assert "__version__" in dir(orthofix)
    with pytest.raises(AttributeError, match="no_such_name"):
        orthofix.no_such_name


def test_case_registry_matches_the_runners_and_the_cli_choices():
    names = [name for name, _ in kinds.list_cases()]
    assert names == list(corpus._RUNNERS)
    (case_choices,) = [options["--case"]["choices"] for run, *_, options in cli._COMMANDS if run is cli.corpus]
    assert case_choices == names
    assert [report.name for report in corpus.run_all()] == names


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # A fresh interpreter per module catches an import that works only after another module loaded first.
    name = "orthofix" if module == "__init__" else f"orthofix.{module}"
    script = f"import sys, {name}; print(sorted(m for m in sys.modules if m.startswith('orthofix')))"
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    if module == "__init__":
        assert done.stdout.strip() == "['orthofix']"
