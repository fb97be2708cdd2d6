"""PyYAML is loaded only to read or write an instance file.

Each check runs in a fresh interpreter, since this process has long
imported PyYAML through other tests.  Importing the engines, the harness
and the CLI must leave `yaml` out of `sys.modules`; the loader and the
dumper still round-trip an instance after that; and with PyYAML blocked,
a run and the audit of its transcript, which read no instance file, still
work end to end.
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


def test_imports_leave_yaml_unloaded_and_instances_round_trip(tmp_path):
    out = _python("""
        import sys
        import forcingbench.forcing, forcingbench.harness
        import forcingbench.harness.cli
        assert "yaml" not in sys.modules, "imported PyYAML"
        from forcingbench.harness import gen_coloring, parse_instance
        from forcingbench.harness.instances import (coloring_to_doc,
                                                    dump_instance)
        c = gen_coloring(0)
        back = parse_instance(dump_instance(coloring_to_doc(c, "Coloring")))
        assert back.kind == "Coloring" and back.payload == c
        assert "yaml" in sys.modules
    """, tmp_path)
    assert out.returncode == 0, out.stderr


def test_run_and_verify_without_yaml(tmp_path):
    out = _python("""
        import sys
        sys.modules["yaml"] = None  # any import of PyYAML now fails
        from forcingbench.forcing import run_em
        from forcingbench.harness import emit_transcript, gen_stable_coloring
        from forcingbench.harness.cli import main
        t, _ = run_em(gen_stable_coloring(0), 40)
        emit_transcript(t, "t.json")
        sys.exit(main(["verify", "t.json"]))
    """, tmp_path)
    assert out.returncode < 2, out.stderr
    assert "refuted: 0" in out.stdout.splitlines()
