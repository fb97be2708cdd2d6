"""Each module holds one layer, and a module loads only the layers below it.

Side selection is the leaf module `forcingbench.selection`; every instance
type (`Delta2Partition` beside `Coloring`) and EM's colour facts live in
`forcingbench.approx`.  So reading or generating an instance loads no
engine and no model, and the engines load no model and no tree search.
Every moved name is re-exported from its old module as the same object,
so a patch of it there (perfbench's tracer wraps `base.fallow_check` and
`base.limit_color` by identity) reaches the code that runs.
"""

import json
import os
import subprocess
import sys

import pytest

from forcingbench import approx, omega_model, selection, transcript
from forcingbench import forcing
from forcingbench.forcing import base, d2, em

SRC = os.path.dirname(os.path.dirname(os.path.abspath(selection.__file__)))

SELECTION_NAMES = (
    "INTERSECT_SIDE", "COMPLEMENT_SIDE", "PreconditionViolation",
    "SelectOutcome", "window_mask", "set_mask", "select_side_mask",
    "select_part_mask", "select_side", "select_part",
)
COLOUR_FACTS = ("FallowReport", "color_rows", "fallow_check", "limit_color",
                "stabilization_point")


def _loaded(module: str):
    """The `forcingbench` modules that importing `module` loads in a fresh
    interpreter."""
    code = (f"import json, sys, {module}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('forcingbench'))))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_harness_loads_no_engine_and_no_model():
    loaded = _loaded("forcingbench.harness")
    assert not [m for m in loaded
                if m.startswith(("forcingbench.forcing",
                                 "forcingbench.omega_model"))], loaded
    assert len([m for m in loaded if m.startswith("forcingbench.")]) <= 11


def test_engines_load_no_model_and_no_tree_search():
    loaded = _loaded("forcingbench.forcing")
    assert "forcingbench.omega_model" not in loaded
    assert "forcingbench.trees" not in loaded
    assert "forcingbench.selection" in loaded


def test_selection_is_a_leaf():
    assert _loaded("forcingbench.selection") == ["forcingbench",
                                                 "forcingbench.selection"]


@pytest.mark.parametrize("name", SELECTION_NAMES)
def test_omega_model_reexports_selection(name):
    assert getattr(omega_model, name) is getattr(selection, name)


@pytest.mark.parametrize("name", COLOUR_FACTS)
def test_base_reexports_the_colour_facts(name):
    assert getattr(base, name) is getattr(approx, name)


@pytest.mark.parametrize("name", ("color_rows", "fallow_check",
                                  "limit_color", "stabilization_point"))
def test_em_reads_the_colour_facts_from_approx(name):
    assert getattr(em, name) is getattr(approx, name)


def test_delta2_partition_lives_in_approx():
    assert d2.Delta2Partition is approx.Delta2Partition
    assert forcing.Delta2Partition is approx.Delta2Partition
    assert approx.Delta2Partition.__module__ == "forcingbench.approx"
    assert "class Delta2Partition" not in open(d2.__file__).read()


def test_base_defines_no_colour_fact():
    text = open(base.__file__).read()
    for name in COLOUR_FACTS:
        assert f"def {name}(" not in text and f"class {name}" not in text
        assert getattr(base, name).__module__ == "forcingbench.approx"


def test_subset_width_is_the_formats():
    assert base.SUBSET_WIDTH is transcript.SUBSET_WIDTH
