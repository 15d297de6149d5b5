import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "scripts",
                                                                          "mutants.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_every_snippet_occurs_once():
    # a refactor that moves a catalogued snippet must update the catalogue
    script = load_script()
    assert script.snippet_problems(root=ROOT) == []
    names = [m.name for m in script.MUTANTS + script.EQUIVALENT]
    assert len(set(names)) == len(names)


def test_every_named_test_is_defined():
    # each node id names a test function that its file defines
    for mutant in load_script().MUTANTS:
        assert mutant.ids, mutant.name
        for node in mutant.ids:
            path, *_, name = node.split("::")
            with open(os.path.join(ROOT, path)) as f:
                source = f.read()
            assert re.search(rf"def {re.escape(name.split('[')[0])}\(", source), node


def test_arguments_are_refused_before_any_checkout_is_copied():
    # the script takes no options: --help prints its usage, anything else exits 2 at once
    script = os.path.join(ROOT, "scripts", "mutants.py")
    done = subprocess.run([sys.executable, script, "--bogus"], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2 and "unrecognized arguments: --bogus" in done.stderr
    assert done.stdout == ""
    done = subprocess.run([sys.executable, script, "--help"], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0 and "python3 scripts/mutants.py" in done.stdout
