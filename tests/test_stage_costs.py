"""What the stage engine's cheaper paths must keep, and the auditor's ties
of the extraction to the stages.

Side selection runs on int bitmasks; here a slow reference written from
`select_side`'s docstring, on bit tuples, must give the same outcomes on
random windows and partitions, and raise on the same empty window.  The
witness search sorts F once and passes over the candidates whose fuel
cannot make a query-free program halt; it must find what a search that
runs every candidate finds.  EM's
E+ predicate answers False for a piece with fewer than `need` members
before it builds class pools, and `halt_compat` searches each distinct
pool once per stage; both must answer as the predicates without those
shortcuts do.  `State.blocked` is an insertion-ordered dict, so the
extraction's `blocked` list must keep the order the stages blocked.

The auditor used to certify EM seed 0's transcript with all but its first
five stages deleted (4/2/0), with every stage deleted (2/0/0) and with
`config["stages"]` set to 7 (106/185/0), and a transcript of kind "x"
with no stages audited 1/0/0 without an instance; each is refuted now.
"""

import copy
import itertools
import random

import pytest

from forcingbench.forcing import em, run_d2, run_em, verify_transcript
from forcingbench.forcing.base import (
    ABORT,
    HaltWitness,
    Transcript,
    bounded_halt,
    find_halt_witness,
    halt_compat,
    halt_search,
    queries_oracle,
    query_free_status,
)
from forcingbench.machine import HALTED
from forcingbench.harness import gen_d2_partition, gen_stable_coloring
from forcingbench.omega_model import (
    COMPLEMENT_SIDE,
    INTERSECT_SIDE,
    PreconditionViolation,
    SelectOutcome,
    select_part,
    select_part_mask,
    select_side,
    select_side_mask,
    window_mask,
)

from test_verify import _coh_run


# -- side selection -------------------------------------------------------

def ref_select_side(wi, wj, fuel=None):
    """`select_side`'s docstring, literally, on bit tuples: the least n
    below half the window (and below `fuel`) past which window i avoids one
    side of window j; the complement side by default; then the density
    audit's flip."""
    bound = min(len(wi), len(wj))
    members = [x for x in range(bound) if wi[x]]
    if not members:
        raise PreconditionViolation("window i empty")
    count_int = sum(1 for x in members if wj[x])
    count_comp = len(members) - count_int
    side, by = COMPLEMENT_SIDE, "default"
    cap = bound // 2 if fuel is None else min(fuel, bound // 2)
    for n in range(cap + 1):
        tail = [x for x in members if x >= n]
        if not any(wj[x] for x in tail):
            side, by = COMPLEMENT_SIDE, "search"
            break
        if all(wj[x] for x in tail):
            side, by = INTERSECT_SIDE, "search"
            break
    counts = {INTERSECT_SIDE: count_int, COMPLEMENT_SIDE: count_comp}
    other = INTERSECT_SIDE if side == COMPLEMENT_SIDE else COMPLEMENT_SIDE
    if counts[side] == 0 and counts[other] > 0:
        side, by = other, "audit-flip"
    return SelectOutcome(side, by, count_int, count_comp)


def ref_select_part(wi, parts, fuel=None):
    """The walk over a partition on bit tuples: descend into the complement
    remainder until a part is chosen; the last part takes the rest."""
    if not parts:
        raise PreconditionViolation("empty partition")
    cur, outcomes = wi, []
    for t, p in enumerate(parts[:-1]):
        out = ref_select_side(cur, p, fuel)
        outcomes.append(out)
        if out.side == INTERSECT_SIDE:
            return t, tuple(a & b for a, b in zip(cur, p)), outcomes
        cur = tuple(a & (1 - b) for a, b in zip(cur, p))
    return (len(parts) - 1, tuple(a & b for a, b in zip(cur, parts[-1])),
            outcomes)


def _bits(rng, length, density):
    return tuple(int(rng.random() < density) for _ in range(length))


def _outcome(f, *args):
    try:
        return f(*args)
    except PreconditionViolation as exc:
        return ("raised", str(exc))


def test_mask_selection_matches_the_reference_on_random_windows():
    rng = random.Random(18)
    raised = 0
    for _ in range(3000):
        wi = _bits(rng, rng.randrange(0, 41), rng.choice((0.0, 0.1, 0.5)))
        wj = _bits(rng, rng.randrange(0, 41), rng.random())
        fuel = rng.choice((None, rng.randrange(0, 25)))
        want = _outcome(ref_select_side, wi, wj, fuel)
        assert _outcome(select_side, wi, wj, fuel) == want, (wi, wj, fuel)
        assert _outcome(select_side_mask, window_mask(wi), window_mask(wj),
                        min(len(wi), len(wj)), fuel) == want
        raised += want == ("raised", "window i empty")
    assert raised > 100  # the empty-window precondition was exercised


def test_mask_partition_walk_matches_the_reference():
    rng = random.Random(1018)
    for _ in range(2000):
        length = rng.randrange(1, 41)
        wi = _bits(rng, length, rng.random())
        k = rng.randrange(1, 5)
        owner = [rng.randrange(k) for _ in range(length)]
        # parts of uneven lengths: a step compares below the least so far
        parts = [tuple(int(owner[x] == j)
                       for x in range(rng.randrange(length // 2, length + 1)))
                 for j in range(k)]
        fuel = rng.choice((None, rng.randrange(0, 25)))
        want = _outcome(ref_select_part, wi, parts, fuel)
        assert _outcome(select_part, wi, parts, fuel) == want
    assert _outcome(select_part, (1, 0), []) == ("raised", "empty partition")
    with pytest.raises(PreconditionViolation):
        select_part_mask(0b11, 2, [])


# -- the E+ and halt_compat shortcuts -------------------------------------

@pytest.fixture(scope="module")
def em_stages():
    """(coloring, window, [(F, reservoir)] of EM runs' stages)."""
    out = []
    for seed in (0, 3, 6):
        c = gen_stable_coloring(seed)
        t, _ = run_em(c, 200)
        conds = {(tuple(r.condition["F"]), tuple(r.condition["reservoir"]))
                 for r in t.stages}
        out.append((c, t.config["window"], sorted(conds)))
    return out


def _pieces(rng, reservoir, n):
    for _ in range(n):
        yield tuple(z for z in reservoir if rng.random() < rng.random())


def plain_extendable(c, limits, F, need, piece):
    """The E+ predicate without shortcuts: the first EXTENSION_CAP
    need-subsets of each limit class of the piece, from scratch."""
    for i in range(c.k):
        pool = tuple(sorted(z for z in piece if limits.get(z) == i))
        for extra in itertools.islice(itertools.combinations(pool, need),
                                      em.EXTENSION_CAP):
            if em.valid_em_extension(c, F, extra, limits):
                return True
    return False


def test_extendable_matches_the_plain_predicate(em_stages):
    rng = random.Random(7)
    asked = short = classless = 0
    for c, window, conds in em_stages:
        start = ((), tuple(range(window)))  # where nothing vetoes a member
        for F, reservoir in [start] + rng.sample(conds, min(12, len(conds))):
            run = em._EmRun(c, window)
            # members whose column has no limit color belong to no class
            for z in rng.sample(range(window), 8):
                run.ext.limits.pop(z, None)
            run.cls = tuple(map(run.ext.limits.get, range(window)))
            run.F, run.cond = F, None
            singles = [(z,) for z in reservoir] if not F else []
            for piece in [*_pieces(rng, reservoir, 12), *singles]:
                run.need = rng.randrange(1, 4)
                short += len(piece) < run.need
                classless += any(run.cls[z] is None for z in piece)
                assert run.extendable(piece) == plain_extendable(
                    c, run.ext.limits, F, run.need, piece), (F, piece)
                asked += 1
    assert asked > 300 and short > 20 and classless > 20


def test_halt_compat_matches_the_plain_predicate(em_stages):
    rng = random.Random(11)
    kinds = set()
    for c, window, conds in em_stages:
        run = em._EmRun(c, window)
        limits = run.ext.limits
        for F, reservoir in rng.sample(conds, min(8, len(conds))):
            def fallow(s, F=F):
                return em.valid_em_extension(c, F, s, limits)

            def classes(piece):
                return [tuple(sorted(z for z in piece if limits.get(z) == i))
                        for i in range(c.k)]

            for e in rng.sample(range(400), 6):
                search = halt_search(e, F, fallow)
                compat = halt_compat(
                    e, F, window, classes,
                    lambda z, F=F: em.valid_em_extension(c, F, (z,), limits),
                    search)
                status = query_free_status(e, window + 1)
                kinds.add(status[0])
                for piece in _pieces(rng, reservoir, 5):
                    if status[0] == "queries":
                        plain = any(find_halt_witness(
                            e, F, pool, extra_filter=fallow)[0] is not None
                            for pool in classes(piece))
                    elif status[0] == "diverges":
                        plain = False
                    else:
                        sigma = status[1]
                        plain = (sigma <= (max(F) + 1 if F else 1) or any(
                            z >= sigma - 1
                            and em.valid_em_extension(c, F, (z,), limits)
                            for z in piece))
                    assert compat(piece) == plain, (e, F, piece)
                # the shared search gives what a fresh search gives
                for pool in classes(reservoir) + [()]:
                    assert search(pool) == find_halt_witness(
                        e, F, pool, extra_filter=fallow)
    assert kinds == {"queries", "halts", "diverges"}


def plain_find_halt_witness(e, F, reservoir, subset_width, extra_filter):
    """The witness search without shortcuts: every candidate, in order,
    through the filter and a run of its own."""
    record = {"subset_width": min(subset_width, len(reservoir)),
              "singletons": len(reservoir)}
    if not queries_oracle(e):
        record["query_free"] = True
        if bounded_halt(e, sorted(set(F) | set(reservoir[-1:]))).tag != HALTED:
            return None, record
        candidates = [()] + [(z,) for z in reservoir]
    else:
        width = record["subset_width"]
        head = reservoir[:width]
        candidates = [tuple(head[t] for t in range(width) if mask >> t & 1)
                      for mask in range(1 << width)]
        candidates += [(z,) for z in reservoir[width:]]
    for added in candidates:
        s = tuple(sorted(set(F) | set(added)))
        if extra_filter is not None and not extra_filter(s):
            continue
        out = bounded_halt(e, s)
        if out.tag == HALTED:
            return (HaltWitness(s, tuple(sorted(added)), out.steps, out.use,
                                out.value), record)
    return None, record


def test_witness_search_matches_the_plain_search():
    rng = random.Random(29)
    found = query_free = unordered = 0
    for _ in range(1500):
        e = rng.randrange(3000)
        F = tuple(sorted(rng.sample(range(12), rng.randrange(0, 4))))
        pool = rng.sample(range(40), rng.randrange(0, 7))
        if rng.random() < 0.7:  # as a run has it: increasing, above F
            pool = sorted(z for z in pool if not F or z > F[-1])
        else:
            unordered += 1
        veto = rng.randrange(40)
        fallow = rng.choice((None, lambda s, veto=veto: veto not in s))
        width = rng.randrange(0, 5)
        want = plain_find_halt_witness(e, F, tuple(pool), width, fallow)
        assert find_halt_witness(e, F, tuple(pool), width, fallow) == want
        found += want[0] is not None
        query_free += not queries_oracle(e)
    assert found > 100 and query_free > 100 and unordered > 300


# -- blocked order --------------------------------------------------------

def test_blocked_keeps_the_order_of_the_stages():
    for t in (run_em(gen_stable_coloring(0), 200)[0],
              run_d2(gen_d2_partition(0), 300)[0]):
        aborted = [r.requirement for r in t.stages if r.branch == ABORT]
        assert len(aborted) > 3
        assert t.extraction["blocked"] == aborted


# -- the extraction tied to the stages ------------------------------------

@pytest.fixture(scope="module")
def em_written():
    c = gen_stable_coloring(0)
    return run_em(c, 200)[0].to_dict(), c


def _audit(doc, forge, instance):
    doc = copy.deepcopy(doc)
    forge(doc)
    report = verify_transcript(Transcript.from_dict(doc), audit_fuel=2,
                               instance=instance)
    return report, [f["note"] for f in report.findings
                    if f["grade"] == "refuted"]


STAGES_NOTE = "record count differs from the run's stages"
SET_NOTE = "extracted set is not the last condition's committed set"


def test_honest_em_audit_unchanged(em_written):
    doc, c = em_written
    report, _ = _audit(doc, lambda d: None, c)
    assert report.counts == {"certified": 106, "provisional": 185,
                             "refuted": 0}


@pytest.mark.parametrize("forge, notes", [
    (lambda d: d.update(stages=d["stages"][:5]), [STAGES_NOTE, SET_NOTE]),
    (lambda d: d.update(stages=[]), [STAGES_NOTE, SET_NOTE]),
    (lambda d: d["config"].update(stages=7), [STAGES_NOTE]),
], ids=["first-five-stages", "no-stages", "config-stages-7"])
def test_extraction_untied_from_the_stages_refuted(em_written, forge, notes):
    doc, c = em_written
    _, refuted = _audit(doc, forge, c)
    assert refuted == notes


def test_kind_no_run_writes_refuted_without_instance(em_written):
    doc, _ = em_written

    def forge(d):
        d.update(kind="x", stages=[])
    _, refuted = _audit(doc, forge, None)
    assert refuted == ["kind is not one a run writes"]


def test_d2_parts_tied_to_the_last_condition():
    d = gen_d2_partition(0)
    t, (color, _) = run_d2(d, 300)
    doc = t.to_dict()
    assert verify_transcript(t, audit_fuel=2, instance=d).ok

    def part_cut(i):
        def forge(doc):
            parts = doc["extraction"]["F_parts"]
            parts[i] = parts[i][:-1]
        return forge

    # the other part, and the selected one, which `B` no longer equals
    for forge in (part_cut(1 - color), part_cut(color)):
        _, refuted = _audit(doc, forge, d)
        assert refuted == ["extracted parts are not the last condition's "
                           "committed parts"]


def test_coh_set_tied_to_the_last_condition():
    t, _ = _coh_run()
    doc = t.to_dict()

    def stages_cut(doc):
        doc["stages"] = doc["stages"][:10]
        doc["config"]["stages"] = 10
    _, refuted = _audit(doc, stages_cut, None)
    assert refuted == [SET_NOTE]
