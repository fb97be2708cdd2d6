"""Command line front end.

Exit codes: 0 when every audited fact is certified, 1 when some remain
provisional, 2 on refutations or errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..forcing import (
    CohConfig,
    rt2_pipeline,
    run_coh,
    run_d2,
    run_em,
    verify_transcript,
)
from ..omega_model import build_model, model_audit
from ..trees import low_basis_path
from .generators import (
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
    gen_table_tree,
)
from .instances import (
    coloring_to_doc,
    dump_instance,
    load_instance,
    partition_to_doc,
    tree_to_doc,
)
from .oracles import brute_oracle
from .transcripts import emit_transcript, load_transcript, transcript_hash


def _wrong_kind(command: str, needs: str, got: str) -> int:
    article = "an" if needs == "RFamily" else "a"
    print(f"{command} needs {article} {needs} instance, got {got}",
          file=sys.stderr)
    return 2


def _exit_code(report) -> int:
    if report.counts["refuted"]:
        return 2
    if report.counts["provisional"]:
        return 1
    return 0


def _finish(t, extracted, instance, args) -> int:
    if args.out:
        path, digest = emit_transcript(t, args.out)
        print(f"transcript {path} sha256 {digest}")
    else:
        print(f"transcript sha256 {transcript_hash(t)}")
    print(f"extracted: {extracted}")
    report = verify_transcript(t, instance=instance)
    for grade in ("certified", "provisional", "refuted"):
        print(f"{grade}: {report.counts[grade]}")
    return _exit_code(report)


def _cmd_run_coh(args, family) -> int:
    cfg = CohConfig(window=args.window, density_min=args.density_min,
                    schedule=args.schedule)
    t, c = run_coh(family, args.stages, config=cfg)
    return _finish(t, {"C": c}, family, args)


def _cmd_run_em(args, c) -> int:
    t, b = run_em(c, args.stages)
    return _finish(t, {"B": b}, c, args)


def _cmd_run_d2(args, d) -> int:
    t, (color, b) = run_d2(d, args.stages)
    return _finish(t, {"color": color, "B": b}, d, args)


def _cmd_run_rt2(args, c) -> int:
    h, t = rt2_pipeline(c, args.stages)
    return _finish(t, {"H": h}, c, args)


def _cmd_low_basis(args, tree) -> int:
    path, decisions = low_basis_path(tree, args.e_bound, args.depth)
    print("path: " + "".join(str(b) for b in path))
    for d in decisions.decisions:
        flag = " (provisional)" if d.provisional else ""
        print(f"  e={d.e} {d.verdict} at depth {d.depth_committed}{flag}")
    return 0


def _cmd_build_model(args, family) -> int:
    m = build_model(family[0], args.depth, low=args.low)
    problems = model_audit(m)
    print(f"model depth {m.depth}, node bits {len(m.node)}")
    if problems:
        for p in problems:
            print(f"audit: {p}")
        return 2
    print("audit clean")
    return 0


def _cmd_verify(args) -> int:
    t = load_transcript(args.transcript, expect_hash=args.expect_hash)
    instance = None
    if args.instance:
        instance = load_instance(args.instance).payload
    report = verify_transcript(t, instance=instance)
    for f in report.findings:
        if f["grade"] != "certified" or args.verbose:
            where = "" if f["stage"] is None else f" stage {f['stage']}"
            print(f"{f['grade']}{where}: {f['note']}")
    for grade in ("certified", "provisional", "refuted"):
        print(f"{grade}: {report.counts[grade]}")
    return _exit_code(report)


# the instance kinds each oracle reads (fallow and cohesive_check also
# read --members)
_ORACLES = {"homogeneous": ("Coloring", "StableColoring"),
            "fallow": ("Coloring", "StableColoring"),
            "d2_subset": ("Delta2Partition",), "cohesive_check": ("RFamily",)}


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    kinds = _ORACLES[args.kind]
    if inst.kind not in kinds:
        return _wrong_kind(f"oracle {args.kind}", " or ".join(kinds),
                           inst.kind)
    p, needs = inst.payload, None
    if args.kind in ("fallow", "cohesive_check") and (
            args.members is None or min(args.members, default=0) < 0):
        needs = "--members of naturals"
    elif args.kind == "fallow" and max(args.members, default=-1) >= p.bound:
        needs = f"--members below the coloring's bound {p.bound}"
    elif args.kind == "d2_subset" and not 0 <= args.color < p.k:
        needs = f"--color from 0 to {p.k - 1}"
    if needs is not None:
        print(f"oracle {args.kind} needs {needs}", file=sys.stderr)
        return 2
    rep = brute_oracle(args.kind, p, bound=args.bound,
                       color=args.color, members=args.members)
    print(json.dumps({
        "kind": rep.kind, "method": rep.method, "size": rep.size,
        "optimum": rep.optimum,
        "witness": None if rep.witness is None else list(rep.witness),
        "detail": {str(k): v for k, v in rep.detail.items()},
    }, default=list, indent=2))
    return 0


def _cmd_gen(args) -> int:
    if args.what == "stable-coloring":
        doc = coloring_to_doc(gen_stable_coloring(args.seed))
    elif args.what == "coloring":
        doc = coloring_to_doc(gen_coloring(args.seed), kind="Coloring")
    elif args.what == "d2-partition":
        doc = partition_to_doc(gen_d2_partition(args.seed))
    else:
        doc = tree_to_doc(gen_table_tree(args.seed, depth=args.depth))
    doc["seed"] = args.seed
    text = dump_instance(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_run_common(p):
    p.add_argument("instance")
    p.add_argument("--stages", type=int, default=60)
    p.add_argument("--out", default=None, help="transcript destination")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forcingbench",
        description="stagewise constructions over finite presentations")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-coh", help="cohesive set construction")
    _add_run_common(p)
    coh = CohConfig()
    p.add_argument("--window", type=int, default=coh.window)
    p.add_argument("--density-min", type=int, default=coh.density_min)
    p.add_argument("--schedule", choices=("least", "committed-columns"),
                   default=coh.schedule)
    p.set_defaults(fn=_cmd_run_coh, needs="RFamily")

    p = sub.add_parser("run-em", help="free set construction for a stable coloring")
    _add_run_common(p)
    p.set_defaults(fn=_cmd_run_em, needs="StableColoring")

    p = sub.add_parser("run-d2", help="infinite subset of a limit partition")
    _add_run_common(p)
    p.set_defaults(fn=_cmd_run_d2, needs="Delta2Partition")

    p = sub.add_parser("run-rt2", help="monochromatic set for a pair coloring")
    _add_run_common(p)
    p.set_defaults(fn=_cmd_run_rt2, needs="Coloring")

    p = sub.add_parser("low-basis", help="divergence-forcing path through a tree")
    p.add_argument("instance")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--e-bound", type=int, default=4)
    p.set_defaults(fn=_cmd_low_basis, needs="Tree")

    p = sub.add_parser("build-model", help="coded model over a base set")
    p.add_argument("instance")
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--low", action="store_true")
    p.set_defaults(fn=_cmd_build_model, needs="RFamily")

    p = sub.add_parser("verify", help="re-audit a stored transcript")
    p.add_argument("transcript")
    p.add_argument("--instance", default=None)
    p.add_argument("--expect-hash", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force reference answers")
    p.add_argument("kind", choices=tuple(_ORACLES))
    p.add_argument("instance")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--color", type=int, default=0)
    p.add_argument("--members", type=int, nargs="*", default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a seeded instance file")
    p.add_argument("what", choices=("stable-coloring", "coloring",
                                    "d2-partition", "table-tree"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    needs = getattr(args, "needs", None)
    try:
        if needs is None:
            return args.fn(args)
        inst = load_instance(args.instance)
        if inst.kind != needs:
            return _wrong_kind(args.command, needs, inst.kind)
        return args.fn(args, inst.payload)
    except Exception as exc:  # surface a one-line diagnosis, not a traceback
        if args.verbose:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
