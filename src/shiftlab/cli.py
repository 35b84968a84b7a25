"""Command-line front door.

Loads JSON fixtures, dispatches the analyses, and writes JSON/CSV reports.
Thresholds arrive as exponents (epsilon = 2**-E) so every comparison is an
exact dyadic one.  Reports embed the tool version, sha256 digests of the
inputs, and any seeds, and files are written atomically, so identical
invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 precondition or schema failure, 1 internal
invariant violation or any other error.  A failure prints one line on
stderr and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .errors import (
    InternalInvariantViolation,
    InvalidScales,
    PreconditionError,
    SchemaError,
)
from . import chaos, decomposition, fixtures, inverse_systems, shadow_lab, shift_core, towers


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise SchemaError("malformed JSON in %s at line %d column %d: %s"
                          % (path, e.lineno, e.colno, e.msg))
    except OSError as e:
        raise PreconditionError("cannot read %s: %s" % (path, e))


def _atomic_write(path: str, data: str) -> None:
    """Write through a temporary file beside path.  A path that cannot be
    written is a precondition failure, and leaves no temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        raise PreconditionError("cannot write %s: %s" % (path, e.strerror)) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _frac(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _header(args) -> dict:
    h = {"version": __version__,
         "input_digests": {"in": _digest(args.infile)} if args.infile else {}}
    if getattr(args, "seed", None) is not None:
        h["seed"] = args.seed
    return h


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_analyze(args) -> dict:
    g = shift_core.graph_from_json(_load_json(args.infile))
    dec = decomposition.chain_components(g)
    comps = []
    for c in dec.components:
        cs = decomposition.cyclic_structure(c.graph)
        comps.append({
            "id": c.component_id,
            "vertices": sorted(c.graph.vertices),
            "edge_count": len(c.graph.edges),
            "period": cs.period,
            "entropy": decomposition.entropy(c.graph),
        })
    body = {
        "components": comps,
        "transient_vertices": sorted(dec.transient_vertices),
        "irreducible": decomposition.is_irreducible(g),
        "entropy": decomposition.entropy(g),
    }
    if body["irreducible"]:
        body["mixing"] = decomposition.is_mixing(g)
    return body


def _cmd_mlc(args) -> dict:
    seq = inverse_systems.sequence_from_json(_load_json(args.infile))
    rep = inverse_systems.check_mlc(seq, depth_cap=args.cap)
    levels = []
    for lv in rep.levels:
        levels.append({"level": lv.level, "mlc1": lv.mlc1,
                       "witness": lv.witness, "status": lv.mlc_status,
                       "stabilized_at": lv.chain.stabilized_at})
    return {"cap": args.cap, "all_mlc1": rep.all_mlc1,
            "all_witnessed": rep.all_witnessed, "levels": levels}


def _cmd_towers(args) -> dict:
    seq = inverse_systems.sequence_from_json(_load_json(args.infile))
    found = towers.enumerate_towers(seq, args.depth, kind=args.kind)
    return {
        "depth": args.depth,
        "kind": args.kind,
        "towers": [list(t.entries) for t in found],
    }


def _cmd_entropic(args) -> dict:
    seq = inverse_systems.sequence_from_json(_load_json(args.infile))
    res = towers.find_entropic_component(seq, depth=args.depth)
    return {
        "level": res.level,
        "component": res.tower.entries[res.level - 1],
        "entropy_bound": res.entropy_bound,
        "tower": list(res.selection.tower.entries),
        "tower_kind": res.selection.tower.kind,
        "properties": dict(res.selection.properties),
    }


def _cmd_scramble(args) -> dict:
    g = shift_core.graph_from_json(_load_json(args.infile))
    distal = chaos.find_r_distal_tuple(g, args.n)
    tup = chaos.build_scrambled_tuple(g, distal, num_blocks=args.blocks)
    shown = [(k, b) for k, b in enumerate(tup.blocks, 1)
             if args.horizon is None or b.end <= args.horizon]
    rows = chaos.density_report(tup.streams, args.eps_exp, tup.delta,
                                [b.end for _, b in shown])
    table = []
    for (k, b), row in zip(shown, rows):
        fc, ff = row.fractions()
        need = 1 - Fraction(1, k)
        table.append({
            "horizon": row.horizon, "block": k, "kind": b.kind,
            "frac_close": float(fc), "frac_far": float(ff),
            "pass_close": bool(fc >= need) if b.kind == "together" else None,
            "pass_far": bool(ff >= need) if b.kind == "apart" else None,
        })
    if args.csv:
        lines = ["horizon,frac_close,frac_far,pass_close,pass_far"]
        for r in table:
            lines.append("%d,%.9f,%.9f,%s,%s" % (
                r["horizon"], r["frac_close"], r["frac_far"],
                "" if r["pass_close"] is None else str(r["pass_close"]).lower(),
                "" if r["pass_far"] is None else str(r["pass_far"]).lower()))
        _atomic_write(args.csv, "\n".join(lines) + "\n")
    return {
        "n": args.n,
        "distal_points": [str(p) for p in distal.points],
        "radius": _frac(distal.radius),
        "delta": _frac(tup.delta),
        "epsilon_exp": args.eps_exp,
        "block_lengths": list(tup.schedule_lengths),
        "rows": table,
    }


def _shadow_system(args) -> shadow_lab.FiniteSystem:
    if args.infile:
        if args.family is not None:
            raise SchemaError("give --in or --family, not both")
        g = shift_core.graph_from_json(_load_json(args.infile))
        return shadow_lab.truncate_shift(g, args.depth)
    if args.family == "full":
        return shadow_lab.truncate_shift(shift_core.full_shift(["0", "1"]),
                                         args.depth)
    if args.family == "gap":
        return shadow_lab.truncate_shift(shadow_lab.gap_shift_graph(args.k),
                                         args.depth)
    if args.family == "limit":
        return shadow_lab.limit_gap_system(args.tail)
    raise SchemaError("need --in or --family")


def _cmd_shadow(args) -> dict:
    if args.eps_exp < 0 or args.delta_exp < 0:
        raise InvalidScales("--eps-exp and --delta-exp must be nonnegative")
    # The report writes 2**E in decimal.  2**14284 has 4,300 digits, the
    # most that int-to-str conversion allows by default; the bound is
    # written here so that every Python refuses the same exponents.
    if max(args.eps_exp, args.delta_exp) > 14284:
        raise InvalidScales("--eps-exp and --delta-exp must be at most 14284")
    sysm = _shadow_system(args)
    eps = Fraction(1, 2 ** args.eps_exp)
    delta = Fraction(1, 2 ** args.delta_exp)
    rep = shadow_lab.brute_shadowing_check(sysm, eps, delta, args.horizon,
                                           mode=args.mode, samples=args.samples,
                                           seed=args.seed)
    body = {
        "family": args.family, "points": len(sysm.labels),
        "epsilon": _frac(eps), "delta": _frac(delta),
        "horizon": args.horizon, "mode": rep.mode,
        "shadowed": rep.shadowed,
        "states_explored": rep.states_explored,
        "orbits_checked": rep.orbits_checked,
    }
    if rep.counterexample is not None:
        body["counterexample"] = list(rep.counterexample)
        body["failure_trace"] = [list(t) for t in rep.failure_trace]
    return body


def _cmd_layered(args) -> dict:
    ex = shadow_lab.build_layered_example(base_depth=args.base_depth,
                                         fiber_depth=args.fiber_depth)
    census = shadow_lab.layered_census(ex)
    checks = shadow_lab.layered_fiber_shadowing(ex, horizon=args.horizon)
    return {
        "base_depth": args.base_depth,
        "fiber_depth": args.fiber_depth,
        "point_count": sum(len(s.base_points) * len(s.fiber.labels) for s in ex.strata),
        "stratum_sizes": {str(k): v for k, v in sorted(census.stratum_sizes.items())},
        "interior_count": census.interior_count,
        "component_count": census.component_count,
        "fibers_invariant": census.fibers_invariant,
        "fibers_transitive": census.fibers_transitive,
        "base_values_distinct": census.base_values_distinct,
        "fiber_shadowing": {k: v.shadowed for k, v in sorted(checks.items())},
    }


# ---------------------------------------------------------------------------
# Selftests: small canned batteries, pass/fail counts on stdout.


def _run_battery(name: str, cases) -> int:
    passed = failed = 0
    failures = []
    for label, fn in cases:
        try:
            ok = bool(fn())
        except Exception as e:
            failed += 1
            failures.append("%s: %r" % (label, e))
        else:
            if ok:
                passed += 1
            else:
                failed += 1
                failures.append(label)
    out = {"selftest": name, "passed": passed, "failed": failed}
    if failures:
        out["failures"] = failures
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0 if failed == 0 else 1


def _selftest_analyze() -> list:
    g = fixtures.golden_mean_graph()
    phi = (1 + math.sqrt(5)) / 2
    return [
        ("golden_mean_entropy",
         lambda: abs(decomposition.entropy(g) - math.log(phi)) < 1e-9),
        ("golden_mean_irreducible", lambda: decomposition.is_irreducible(g)),
        ("golden_mean_mixing", lambda: decomposition.is_mixing(g)),
        ("full_shift_entropy",
         lambda: abs(decomposition.entropy(shift_core.full_shift(["0", "1"]))
                     - math.log(2)) < 1e-12),
        ("two_cycle_period",
         lambda: decomposition.cyclic_structure(fixtures.two_cycle_graph()).period == 2),
    ]


def _selftest_mlc() -> list:
    seq = fixtures.abc_sequence()
    rep = inverse_systems.check_mlc(seq, depth_cap=16)
    return [
        ("abc_not_mlc1", lambda: not rep.all_mlc1),
        ("abc_witness", lambda: all(lv.witness == lv.level + 2 for lv in rep.levels)),
        ("constant_mlc1",
         lambda: inverse_systems.check_mlc(fixtures.constant_sequence(
             fixtures.golden_mean_graph()), depth_cap=16).all_mlc1),
    ]


def _selftest_towers() -> list:
    seq = fixtures.branching_sequence()
    found = towers.enumerate_towers(seq, 3)
    return [
        ("branching_depth3_unique", lambda: len(found) == 1),
        ("selection_properties",
         lambda: all(dict(towers.select_max_tower(
             fixtures.branching_sequence(),
             towers.Tower("component", ("K0", "K1")), 1, 4).properties).values())),
    ]


def _selftest_entropic() -> list:
    phi = (1 + math.sqrt(5)) / 2
    res = towers.find_entropic_component(fixtures.mixed_sequence(), depth=4)
    return [
        ("mixed_bound", lambda: abs(res.entropy_bound - math.log(phi)) < 1e-9),
        ("cycles_only_rejected", lambda: _raises(
            lambda: towers.find_entropic_component(
                fixtures.cycles_only_sequence(), depth=4))),
    ]


def _selftest_scramble() -> list:
    g = fixtures.golden_mean_graph()
    d = chaos.find_r_distal_tuple(g, 2)
    tup = chaos.build_scrambled_tuple(g, d, num_blocks=4)
    ends = [b.end for b in tup.blocks]
    rows = chaos.density_report(tup.streams, 5, tup.delta, ends)
    return [
        ("radius_one", lambda: d.radius == 1),
        ("block3_close", lambda: rows[2].fractions()[0] >= Fraction(2, 3)),
        ("block4_far", lambda: rows[3].fractions()[1] >= Fraction(3, 4)),
    ]


def _selftest_shadow() -> list:
    lim = shadow_lab.limit_gap_system(8)
    rep = shadow_lab.brute_shadowing_check(lim, Fraction(1, 4), Fraction(1, 16), 16)
    full = shadow_lab.truncate_shift(shift_core.full_shift(["0", "1"]), 4)
    rep2 = shadow_lab.brute_shadowing_check(full, Fraction(1, 2), Fraction(1, 4), 6)
    return [
        ("limit_counterexample", lambda: not rep.shadowed),
        ("full_truncation_shadows", lambda: rep2.shadowed),
    ]


def _selftest_layered() -> list:
    ex = shadow_lab.build_layered_example(base_depth=3, fiber_depth=8)
    census = shadow_lab.layered_census(ex)
    return [
        ("fibers_invariant", lambda: census.fibers_invariant),
        ("fibers_transitive", lambda: census.fibers_transitive),
        ("components_match_words", lambda: census.component_count == 8),
    ]


def _raises(fn) -> bool:
    try:
        fn()
    except PreconditionError:
        return True
    return False


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shiftlab",
                                description="Symbolic-dynamics analysis toolkit.")
    p.add_argument("--version", action="version", version="shiftlab " + __version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, infile="required"):
        """infile: whether --in is "required" (unless --selftest), "optional"
        or "absent" for this subcommand."""
        if infile != "absent":
            sp.add_argument("--in", dest="infile", required=False, default=None,
                            help="input JSON fixture")
        sp.add_argument("--out", default=None, help="output JSON report")
        sp.add_argument("--selftest", action="store_true",
                        help="run the module fixture battery instead")
        sp.set_defaults(infile=None, in_required=infile == "required")

    sp = sub.add_parser("analyze", help="chain components, entropy, periods")
    common(sp)

    sp = sub.add_parser("mlc", help="image chains and stabilization per level")
    common(sp)
    sp.add_argument("--cap", type=int, default=inverse_systems.DEFAULT_DEPTH_CAP)

    sp = sub.add_parser("towers", help="enumerate component towers")
    common(sp)
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--kind", choices=["component", "cyclic"], default="component")

    sp = sub.add_parser("entropic", help="positive-entropy component search")
    common(sp)
    sp.add_argument("--depth", type=int, default=4)

    sp = sub.add_parser("scramble", help="scrambled streams and densities")
    common(sp)
    sp.add_argument("-n", type=int, default=2, help="tuple size")
    sp.add_argument("--blocks", type=int, default=8)
    sp.add_argument("--eps-exp", type=int, default=5)
    sp.add_argument("--horizon", type=int, default=None)
    sp.add_argument("--csv", default=None, help="density CSV output path")

    sp = sub.add_parser("shadow", help="brute-force shadowing check")
    common(sp, infile="optional")
    sp.add_argument("--family", choices=["full", "gap", "limit"], default=None)
    sp.add_argument("--k", type=int, default=1, help="gap parameter")
    sp.add_argument("--tail", type=int, default=8, help="limit family tail length")
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--eps-exp", type=int, default=1)
    sp.add_argument("--delta-exp", type=int, default=2)
    sp.add_argument("--horizon", type=int, default=8)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("layered", help="layered interval example census")
    common(sp, infile="absent")
    sp.add_argument("--base-depth", type=int, default=4)
    sp.add_argument("--fiber-depth", type=int, default=12)
    sp.add_argument("--horizon", type=int, default=8)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    name = args.subcommand
    try:
        if args.selftest:
            return _run_battery(name, globals()["_selftest_" + name]())
        if args.in_required and args.infile is None:
            raise SchemaError("--in is required for this subcommand")
        body = globals()["_cmd_" + name](args)
        report = _header(args)
        report.update(body)
        _emit(report, args.out)
        return 0
    except PreconditionError as e:
        sys.stderr.write("precondition failed: %s\n" % e)
        return 2
    except InternalInvariantViolation as e:
        sys.stderr.write("internal invariant violated: %s\n" % e)
        return 1
    except Exception as e:
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(e).__name__, " ".join(str(e).split())))
        return 1


if __name__ == "__main__":
    sys.exit(main())
