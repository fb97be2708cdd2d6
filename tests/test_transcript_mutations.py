"""A one-node forgery of a written transcript is rejected at load or
audited to a report; nothing else raises.

Each case takes a seed-0 transcript (EM, D2, RT2, and the coh transcript
nested in the RT2 one), replaces one random JSON node outside `audits`
with one of ten values that cover every JSON type, writes the file, then
loads it and audits it with the instance.  Loading may reject the file with
`TranscriptFormatError`; anything else must come back as an audit report.
The seed is fixed, so every run forges the same nodes.
"""

import json
import random
from functools import reduce
from operator import getitem

import pytest

from forcingbench.forcing import (rt2_pipeline, run_d2, run_em,
                                  verify_transcript)
from forcingbench.forcing.pipeline import column_family
from forcingbench.forcing.verify import AuditReport
from forcingbench.harness import (gen_coloring, gen_d2_partition,
                                  gen_stable_coloring)
from forcingbench.harness.transcripts import (TranscriptFormatError,
                                              load_transcript)

VALUES = (None, "x", -1, 10**6, [], {}, 1.5, True, [None], {"a": 1})
MUTATIONS = 100  # per transcript


@pytest.fixture(scope="module")
def written():
    """Each kind's written form and the instance its audit reads."""
    c, s, d = gen_coloring(0), gen_stable_coloring(0), gen_d2_partition(0)
    rt2 = rt2_pipeline(c, 60)[1].to_dict()
    return {
        "em": (run_em(s, 200)[0].to_dict(), s),
        "d2": (run_d2(d, 300)[0].to_dict(), d),
        "rt2": (rt2, c),
        "coh": (rt2["extraction"]["coh"], column_family(c)),
    }


def _paths(node, path=()):
    """The path of every node below `node`, leaving out the top-level
    `audits`, which no check reads."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        if path or key != "audits":
            yield path + (key,)
            yield from _paths(child, path + (key,))


@pytest.mark.parametrize("kind", ["em", "d2", "rt2", "coh"])
def test_one_node_forgery_is_rejected_or_audited(written, kind, tmp_path):
    doc, instance = written[kind]
    rng = random.Random(f"mutation-{kind}")
    paths = list(_paths(doc))
    out = tmp_path / "t.json"
    raised = []
    for _ in range(MUTATIONS):
        where, value = rng.choice(paths), rng.choice(VALUES)
        parent = reduce(getitem, where[:-1], doc)
        kept, parent[where[-1]] = parent[where[-1]], value
        out.write_text(json.dumps(doc))
        parent[where[-1]] = kept
        try:
            t = load_transcript(str(out))
        except TranscriptFormatError:
            continue
        except Exception as exc:  # anything else is the defect
            raised.append(("load", where, value, repr(exc)))
            continue
        try:
            report = verify_transcript(t, audit_fuel=2, instance=instance)
        except Exception as exc:
            raised.append(("verify", where, value, repr(exc)))
            continue
        assert isinstance(report, AuditReport)
    assert raised == []
