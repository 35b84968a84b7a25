"""Job lists of the three benchmark workloads, their inputs, and the
library-call jobs.

A job is a dict with a stable ``key``, the ids of the ``inputs`` it reads,
and either ``cli`` (an argv for ``shiftlab.cli.main``; ``@<id>`` stands for
the path of an input, ``@csv`` for a scratch CSV path) or ``lib`` plus
``params`` (a function of this module that returns the report text).

Each workload is a fixed list of jobs.  The workload seed draws a variant
of every input file: the same graphs with their vertices renamed by a
seeded permutation, so the language, the work and the cost stay the same
while the bytes, the reports and the values the program sees change.
Sampled shadowing jobs draw their sampling seed the same way.  There are
``VARIANTS`` variants of each, and every job any seed can produce has an
exit code and report digest in ``expected.json``, recorded once with
``run.py --record``.

Only the child process and the input generator import shiftlab, and only
on demand, so that a pass process can time its own import as set-up.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("sequence", "graph", "shadow")
VARIANTS = 6

# random_sequence seeds on which `entropic --depth 3` applies (the sequence
# is one-step stable after restriction and has a positive-entropy image).
# Other seeds exit 2 by design, and the workloads hold no failing job.
ENTROPIC_SEEDS = (3, 8, 21, 45, 49, 52, 59, 62)

# The depth-4 component towers of cantor_product_sequence(3), by index.
CP3_TOWERS = 8


def _cli(*argv, inputs=()) -> dict:
    argv = [str(a) for a in argv]
    return {"key": "cli:" + " ".join(argv), "inputs": list(inputs), "cli": argv}


def _lib(name: str, inputs=(), **params) -> dict:
    args = ["@" + i for i in inputs] + ["%s=%s" % kv for kv in sorted(params.items())]
    return {"key": "lib:" + " ".join([name] + args), "inputs": list(inputs),
            "lib": name, "params": params}


def _sequence_jobs() -> list[dict]:
    # Why: the follower automaton, code validation, image chains and tower
    # selection do nearly all the work here, on small graphs that recur by
    # value (a tower-approximation job rebuilds and revalidates the
    # identity codes of one level graph hundreds of times).
    jobs = []
    for f in ("data/abc_sequence", "data/branching_sequence", "data/mixed_sequence"):
        for cap in (4, 8, 12, 16):
            jobs.append(_cli("mlc", "--in", "@" + f, "--cap", cap, inputs=[f]))
        for depth in (2, 3, 4):
            jobs.append(_cli("towers", "--in", "@" + f, "--depth", depth, inputs=[f]))
            if f != "data/abc_sequence":  # abc is not one-step stable: exit 2
                jobs.append(_cli("entropic", "--in", "@" + f, "--depth", depth,
                                 inputs=[f]))
    for s in range(20):
        i = "rseq-%d" % s
        jobs.append(_cli("mlc", "--in", "@" + i, "--cap", 6 + 4 * (s % 2), inputs=[i]))
        jobs.append(_cli("towers", "--in", "@" + i, "--depth", 2 + s % 2, inputs=[i]))
    for s in ENTROPIC_SEEDS:
        i = "rseq-%d" % s
        jobs.append(_cli("entropic", "--in", "@" + i, "--depth", 3, inputs=[i]))
    jobs += [_lib("stabilize", ["rseq-%d" % s], cap=10) for s in range(20, 36)]
    jobs += [_lib("cp3_mlc", cap=8), _lib("cp3_towers", depth=4),
             _lib("cp3_towers", depth=5), _lib("cp3_entropic", depth=2),
             _lib("cp3_entropic", depth=3)]
    jobs += [_lib("cp3_approx", tower=t, agree=1 + t % 3) for t in range(CP3_TOWERS)]
    return jobs


def _graph_jobs() -> list[dict]:
    # Why: a few large automata and little value repetition; Moore
    # minimisation (cycles with one marked edge cannot shrink) and the
    # scrambled-stream construction carry the time.  A value-keyed cache
    # pays to hash large graphs here and gets few hits, so a gain on
    # `sequence` that costs this workload shows.
    jobs = [_cli("analyze", "--in", "@cycle-%d" % n, inputs=["cycle-%d" % n])
            for n in (125, 160, 200)]
    jobs += [_cli("analyze", "--in", "@rgraph-%d-%d" % (n, s),
                  inputs=["rgraph-%d-%d" % (n, s)])
             for n in (16, 20, 24, 28) for s in range(10)]
    for blocks, n_values, eps_values in ((7, (2,), (5,)), (6, (2, 3), (4, 5, 6)),
                                         (5, (2, 3, 4), (3, 4, 5, 6)),
                                         (4, (2, 3, 4), (3, 4, 5, 6))):
        for g in ("data/golden_mean", "data/full2"):
            if blocks == 7 and g == "data/full2":
                continue
            for n in n_values:
                for e in eps_values:
                    jobs.append(_cli("scramble", "--in", "@" + g, "-n", n,
                                     "--blocks", blocks, "--eps-exp", e,
                                     "--csv", "@csv", inputs=[g]))
    return jobs


def _shadow_jobs() -> list[dict]:
    # Why: shadow_lab's exact Fraction comparisons, the frozenset BFS of the
    # exhaustive checker and the closure loop of the layered census carry
    # the time; the automaton layers barely run, so a change to automata or
    # towers predicts no change here.
    def shadow(*args, e, d, h):
        return _cli("shadow", *args, "--eps-exp", e, "--delta-exp", d, "--horizon", h)

    jobs = [shadow("--family", "gap", "--k", k, "--depth", depth, e=e, d=d, h=h)
            for k in (1, 2, 3) for depth in (4, 5, 6, 7, 8)
            for (e, d, h) in ((1, 2, 8), (2, 4, 8), (3, 5, 8))]
    jobs += [shadow("--family", "full", "--depth", depth, e=2, d=4, h=8)
             for depth in (5, 6, 7)]
    jobs += [shadow("--family", "limit", "--tail", t, e=e, d=d, h=h)
             for t in range(4, 36, 2) for (e, d, h) in ((1, 2, 8), (2, 4, 16))]
    for family in (("--family", "full", "--depth", 5), ("--family", "full", "--depth", 6),
                   ("--family", "gap", "--k", 1, "--depth", 7),
                   ("--family", "gap", "--k", 2, "--depth", 8),
                   ("--family", "limit", "--tail", 16)):
        for samples in (50, 200):
            job = shadow(*family, "--mode", "sampled", "--samples", samples,
                         "--seed", "@seed", e=1, d=2, h=12)
            jobs.append(job)
    jobs += [_cli("layered", "--base-depth", b, "--fiber-depth", f, "--horizon", 6)
             for b in (1, 2, 3) for f in (6, 7, 8)]
    jobs.append(_cli("layered", "--base-depth", 2, "--fiber-depth", 10, "--horizon", 6))
    return jobs


def _mixed(make):
    """A workload's jobs in one fixed interleaved order, the same for every
    seed, so that no kind of job runs as one block."""
    def jobs():
        out = make()
        random.Random(make.__name__).shuffle(out)
        return out
    return jobs


JOBS = {"sequence": _mixed(_sequence_jobs), "graph": _mixed(_graph_jobs),
        "shadow": _mixed(_shadow_jobs)}


def _variant(job: dict, v: int) -> dict:
    """The job with variant v of its input or sampling seed."""
    def sub(a):
        if a == "@seed":
            return str(v)
        if a.startswith("@") and a[1:] in job["inputs"]:
            return "%s~%d" % (a, v)
        return a

    out = dict(job, inputs=["%s~%d" % (i, v) for i in job["inputs"]])
    if "cli" in job:
        out["cli"] = [sub(a) for a in job["cli"]]
        out["key"] = "cli:" + " ".join(out["cli"])
    elif job["inputs"]:
        out["key"] = "lib:" + " ".join(sub(a) for a in job["key"][4:].split(" "))
    return out


def _variable(job: dict) -> bool:
    return bool(job["inputs"]) or "@seed" in job.get("cli", ())


def pool(workload: str) -> list[dict]:
    """Every job a seed of this workload can produce."""
    return [_variant(job, v) if _variable(job) else job
            for job in JOBS[workload]()
            for v in (range(VARIANTS) if _variable(job) else (0,))]


def select(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's job list for a seed: one variant drawn per input and
    per sampled job.  ``smoke`` keeps every tenth job."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = JOBS[workload]()
    inputs = sorted({i for job in jobs for i in job["inputs"]})
    drawn = {i: rng.randrange(VARIANTS) for i in inputs}
    out = []
    for job in jobs[::10] if smoke else jobs:
        if job["inputs"]:
            job = _variant(job, drawn[job["inputs"][0]])
        elif _variable(job):
            job = _variant(job, rng.randrange(VARIANTS))
        out.append(job)
    return out


# ---------------------------------------------------------------------------
# Inputs


def input_path(root: str, work: str, input_id: str) -> str:
    if input_id.startswith("data/") and input_id.endswith("~0"):
        return "%s/tests/%s.json" % (root, input_id[:-2])
    return "%s/%s.json" % (work, input_id.replace("/", "_"))


def input_text(input_id: str, root: str) -> str:
    """JSON text of an input variant, a function of its id alone."""
    from shiftlab import fixtures, inverse_systems, shift_core

    base, v = input_id.rsplit("~", 1)
    if base.startswith("data/"):
        with open("%s/tests/%s.json" % (root, base), encoding="utf-8") as f:
            data = json.load(f)
    else:
        kind, *nums = base.split("-")
        nums = [int(x) for x in nums]
        if kind == "rseq":
            data = inverse_systems.sequence_to_json(fixtures.random_sequence(nums[0]))
        elif kind == "cycle":
            (n,) = nums
            data = {"alphabet": ["0", "1"], "vertices": ["v%d" % i for i in range(n)],
                    "edges": [["v%d" % i, "v%d" % ((i + 1) % n), "1" if i == n - 1 else "0"]
                              for i in range(n)]}
        elif kind == "rgraph":
            data = shift_core.graph_to_json(_random_resolving_graph(*nums))
        else:
            raise ValueError("unknown input id %r" % input_id)
    if v != "0":
        data = _rename_vertices(data, random.Random(input_id))
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _rename_vertices(data, rng: random.Random):
    """Rename the vertices of every graph in a graph or sequence document
    by a random permutation; the languages stay the same."""
    if isinstance(data, dict) and "vertices" in data:
        order = list(range(len(data["vertices"])))
        rng.shuffle(order)
        name = {v: "n%d" % k for v, k in zip(data["vertices"], order)}
        return dict(data, vertices=[name[v] for v in data["vertices"]],
                    edges=[[name[u], name[v], a] for u, v, a in data["edges"]])
    if isinstance(data, dict):
        return {k: _rename_vertices(x, rng) for k, x in sorted(data.items())}
    if isinstance(data, list):
        return [_rename_vertices(x, rng) for x in data]
    return data


def _random_resolving_graph(n: int, seed: int):
    """Binary graph where each vertex has one out-edge per label of a random
    nonempty label set, each to a random vertex."""
    from shiftlab.shift_core import SftGraph

    rng = random.Random("rgraph:%d:%d" % (n, seed))
    verts = ["s%d" % i for i in range(n)]
    edges = []
    for v in verts:
        for a in sorted(rng.sample("01", rng.randint(1, 2))):
            edges.append((v, rng.choice(verts), a))
    return SftGraph(tuple(verts), tuple(edges), ("0", "1"))


# ---------------------------------------------------------------------------
# Library-call jobs (acceptance-criterion paths).  Each returns report text.


def _report(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _frac(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _load_sequence(path: str):
    from shiftlab import inverse_systems

    with open(path, encoding="utf-8") as f:
        return inverse_systems.sequence_from_json(json.load(f))


def _cp3():
    # The Cantor-product sequence has multi-character symbols, which the
    # sequence JSON round trip cannot carry, so the job builds it.
    from shiftlab import fixtures

    return fixtures.cantor_product_sequence(3)


def stabilize(paths, cap):
    """Criterion 2: one-step stabilization decided three ways."""
    from shiftlab import inverse_systems as inv
    from shiftlab.shift_core import language_equal

    seq = _load_sequence(paths[0])
    c1 = inv.check_mlc(seq, depth_cap=cap).all_mlc1
    c2 = True
    for n in range(1, len(seq.levels) + 1):
        one = inv.composed_image(seq, n + 1, n)
        if not all(language_equal(one, inv.composed_image(seq, m, n))[0]
                   for m in range(n + 2, n + cap)):
            c2 = False
            break
    c3 = True
    for n in range(1, len(seq.levels) + 1):
        hat = inv.hat_space(seq, n, depth_cap=cap)
        if hat.status == "stabilized" and not language_equal(
                hat.graph, inv.composed_image(seq, n + 1, n))[0]:
            c3 = False
            break
    return _report({"check_mlc": c1, "deeper_images": c2, "hat_space": c3})


def cp3_mlc(paths, cap):
    from shiftlab import inverse_systems as inv

    rep = inv.check_mlc(_cp3(), depth_cap=cap)
    return _report({"all_mlc1": rep.all_mlc1, "levels": [
        [lv.level, lv.mlc1, lv.mlc_status, lv.witness] for lv in rep.levels]})


def cp3_towers(paths, depth):
    from shiftlab import towers

    return _report([list(t.entries) for t in towers.enumerate_towers(_cp3(), depth)])


def cp3_entropic(paths, depth):
    from shiftlab import towers

    res = towers.find_entropic_component(_cp3(), depth=depth)
    return _report({"level": res.level, "entropy_bound": repr(res.entropy_bound),
                    "tower": list(res.selection.tower.entries),
                    "properties": res.selection.properties})


def cp3_approx(paths, tower, agree):
    """Criterion 10: approximate a depth-4 tower through the agreement
    level and measure the fiber gap on the depth-3 truncated limit."""
    from shiftlab import inverse_systems as inv, towers

    seq = _cp3()
    sysm = inv.truncated_limit(seq, 3, 5)
    t4 = towers.enumerate_towers(seq, 4)[tower]
    target = towers.truncated_fiber(seq, towers.Tower("component", t4.entries[:3]), sysm)
    rep = towers.approximate_by_shadowing_tower(seq, t4, agree, 4)
    approx = towers.Tower("component", rep.tower.entries[:3])
    fiber = towers.truncated_fiber(seq, approx, sysm)
    gap = towers.fiber_hausdorff_gap(sysm, target, fiber)
    return _report({"tower": list(t4.entries), "approx": list(rep.tower.entries),
                    "gap": _frac(gap), "target": len(target), "fiber": len(fiber)})


LIBRARY = {f.__name__: f for f in (stabilize, cp3_mlc, cp3_towers, cp3_entropic,
                                   cp3_approx)}
