"""The CLI loads the coded model and the tree search only for the commands
that run them.

`build-model` is the one command that reads `forcingbench.omega_model`,
and `low-basis` the one that reads `forcingbench.trees`.  In a fresh
interpreter, importing `forcingbench.harness.cli` loads neither, so every
other command (`run-em`, `verify`, `gen`, ...) skips compiling them; both
commands still exit 0 through `main`.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _python(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_no_model_and_no_tree_search(tmp_path):
    out = _python("""
        import sys
        import forcingbench.harness.cli
        loaded = [m for m in ("forcingbench.omega_model", "forcingbench.trees")
                  if m in sys.modules]
        assert not loaded, loaded
    """, tmp_path)
    assert out.returncode == 0, out.stderr


def test_model_and_tree_commands_still_run(tmp_path):
    out = _python("""
        from forcingbench.harness.cli import main
        open("f.yaml", "w").write(
            "kind: RFamily\\nsets:\\n  - members: [0, 2, 4, 6, 8]\\n"
            "    bound: 10\\n")
        assert main(["gen", "table-tree", "--seed", "3", "--depth", "8",
                     "--out", "t.yaml"]) == 0
        for argv in (["build-model", "f.yaml", "--depth", "20"],
                     ["build-model", "f.yaml", "--depth", "20", "--low"],
                     ["low-basis", "t.yaml", "--depth", "8"]):
            assert main(argv) == 0, argv
    """, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("audit clean") == 2
    assert "path: " in out.stdout
