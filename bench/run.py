"""shiftlab benchmark: batch jobs of the CLI and of the acceptance analyses.

    python3 bench/run.py --workload sequence --seed 1 --seconds 30 --trace 0

Workloads (workloads.py has the job lists and why each was chosen):

* ``sequence``: mlc, towers and entropic on the committed sequence fixtures
  and on random sequences, criterion-2 stabilization checks, and
  criterion-10 tower approximations on the Cantor-product sequence.
* ``graph``: analyze on a ladder of long cycles and on random graphs, and
  scramble on the golden-mean and full 2-shift fixtures.
* ``shadow``: shadow on the gap, limit and full families, exhaustive and
  sampled, and layered.

Each pass runs the workload's fixed job list back to back in a fresh
process (closed loop, one client, no threads).  Passes repeat while the
next one still fits in ``--seconds``; there is always at least one (with
``--trace 1``, one untraced and one traced).  Every job's exit code, report
digest and, for scramble, CSV digest are checked against ``expected.json``,
in traced passes too; a mismatch or an exception is a failed job.

Times are reported at a reference machine speed.  The machine is shared
and its speed swings by a third within seconds, so a fixed probe (see
``_probe``) is timed before and after every job, and a time t measured
around probe time p is reported as t * PROBE_REF_S / p.  The lines before
the result give the measured pass seconds and probe times as well.

``--trace 0`` reports the end-to-end metrics over the untraced passes:

* ``wall_s``: median over passes of the pass time, the sum of its job
  latencies scaled by the mean probe time of the pass;
* ``job_p50_s``, ``job_p90_s``: median and 90th percentile over every job
  latency of every pass, each scaled by the probes on either side of it;
* ``setup_s``: median, over at least eleven fresh processes, of the time
  from the start of ``import shiftlab`` (numpy included) until the first
  job can start, scaled by probes taken just before and after;
* ``peak_rss_mb``: median peak resident memory of a pass process.

``--trace 1`` reports the per-layer metrics of tracing.py (medians over
traced passes, self times scaled like wall_s) and ``trace_overhead``, the
median traced pass time over the median untraced one, and writes the spans
of the last traced pass to ``.bench_out/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and the same figures for reading.  ``--record``
rewrites ``expected.json`` from every job any seed can produce, and belongs
only to a commit whose reports are known to be right.

Seed 20271017 is held out: it was never run while the benchmark was built,
so a later claim can be checked on it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(BENCH, "expected.json")
END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 170

# The probe is interpreter work of the kind shiftlab does (sets, dicts,
# fractions) that calls no shiftlab code.  PROBE_REF_S is about its time
# between jobs on this machine when other tenants are quiet.  The collector
# is off during the probe and the probe frees all it allocates, so it
# neither collects the program's objects nor moves the program's next
# collection.
PROBE_REF_S = 0.0005


def _probe() -> float:
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts = {}
    for i in range(300):
        key = frozenset(range(i % 17, i % 17 + 6))
        counts[key] = counts.get(key, 0) + 1
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i % 13 + 1)
    sorted((j * 7919) % 101 for j in range(200))
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def _use_source_tree() -> None:
    """Import shiftlab from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shiftlab", "__init__.py")):
        raise SystemExit("bench: no shiftlab source under %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Running one job (shared by passes and by --record)


def _call(job: dict, work: str, csv_path: str):
    """Run one job; return (exit code, report text)."""
    import workloads
    from shiftlab import cli

    paths = [workloads.input_path(ROOT, work, i) for i in job["inputs"]]
    if "lib" in job:
        return 0, workloads.LIBRARY[job["lib"]](paths, **job["params"])
    argv = []
    for a in job["cli"]:
        if a == "@csv":
            a = csv_path
        elif a.startswith("@"):
            a = workloads.input_path(ROOT, work, a[1:])
        argv.append(a)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _outcome(job: dict, code, report: str, csv_path: str) -> list:
    csv = None
    if "@csv" in job.get("cli", ()) and os.path.exists(csv_path):
        with open(csv_path, "rb") as f:
            csv = _digest(f.read())
    return [code, _digest(report.encode("utf-8")), csv]


def _run_jobs(jobs: list, work: str, csv_path: str, tracer=None):
    """Closed loop over the jobs: per-job latency, the probe times around
    the jobs (one more than jobs), and whether each job's outcome matches
    the recorded one."""
    latencies, probes, ok = [], [_probe()], []
    for i, job in enumerate(jobs):
        if os.path.exists(csv_path):
            os.unlink(csv_path)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, report = _call(job, work, csv_path)
            else:
                code, report = tracer.run_job(i, lambda: _call(job, work, csv_path))
        except (Exception, SystemExit) as e:  # a failed job, counted below
            code, report = repr(e), ""
        latencies.append(time.perf_counter() - t0)
        probes.append(_probe())
        ok.append(_outcome(job, code, report, csv_path) == job["expected"])
    return latencies, probes, ok


def _child(spec_path: str, traced: bool, spans_out: str) -> None:
    """One pass in a fresh process; prints its figures as one JSON line."""
    setup_probes = [_probe() for _ in range(5)]
    t0 = time.perf_counter()
    _use_source_tree()
    import shiftlab.cli  # noqa: F401  (imports every module, numpy included)
    import shiftlab.fixtures  # noqa: F401
    import workloads  # noqa: F401
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    setup = time.perf_counter() - t0
    setup_probes += [_probe() for _ in range(5)]
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    csv_path = os.path.join(spec["work"], "report-%d.csv" % os.getpid())
    latencies, probes, ok = _run_jobs(spec["jobs"], spec["work"], csv_path, tracer)
    out = {"setup_s": setup, "setup_probe_s": statistics.mean(setup_probes),
           "latencies": latencies, "probes": probes, "ok": ok,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_out)
    sys.stdout.write(json.dumps(out) + "\n")


# ---------------------------------------------------------------------------
# The parent: inputs, passes, metrics


def _pass(spec_path: str, traced: bool, spans_out: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", spec_path,
           "--trace", str(int(traced)), "--spans-out", spans_out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("bench: pass process exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_inputs(jobs: list, work: str) -> None:
    import workloads

    for input_id in sorted({i for job in jobs for i in job["inputs"]}):
        path = workloads.input_path(ROOT, work, input_id)
        if path.startswith(work + os.sep):
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(workloads.input_text(input_id, ROOT))


def _environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "shiftlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": src.hexdigest()}


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    _use_source_tree()
    import workloads

    with open(EXPECTED, encoding="utf-8") as f:
        expected = json.load(f)
    jobs = workloads.select(workload, seed, smoke)
    for job in jobs:
        if job["key"] not in expected:
            raise SystemExit("bench: no recorded outcome for %s" % job["key"])
        job["expected"] = expected[job["key"]]
    env = _environment(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    spans_out = os.path.join(OUT, "%s.spans.jsonl" % workload)
    try:
        _write_inputs(jobs, work)
        spec_path = os.path.join(work, "jobs.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump({"work": work, "jobs": jobs}, f)
        passes: list[tuple[bool, dict]] = []
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                passes.append((traced, _pass(spec_path, traced, spans_out)))
            last = time.perf_counter() - t0
            if smoke or time.perf_counter() - begin + last > seconds:
                break
        setups = [(p["setup_s"], p["setup_probe_s"]) for _t, p in passes]
        if not trace and not smoke:
            empty = os.path.join(work, "empty.json")
            with open(empty, "w", encoding="utf-8") as f:
                json.dump({"work": work, "jobs": []}, f)
            while len(setups) < SETUP_SAMPLES:
                p = _pass(empty, False, spans_out)
                setups.append((p["setup_s"], p["setup_probe_s"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for _t, p in passes:
        speed = PROBE_REF_S / statistics.mean(p["probes"])
        p["wall_raw_s"] = sum(p["latencies"])
        p["wall_s"] = p["wall_raw_s"] * speed
        p["job_s"] = [lat * 2 * PROBE_REF_S / (before + after) for lat, before, after
                      in zip(p["latencies"], p["probes"], p["probes"][1:])]
    plain = [p for traced, p in passes if not traced]
    attempted = sum(len(p["ok"]) for _t, p in passes)
    failed = sum(p["ok"].count(False) for _t, p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# %s seed %d: %d jobs, %d passes (%d traced), jobs_failed %d/%d = %.4f"
          % (workload, seed, len(jobs), len(passes), len(passes) - len(plain),
             failed, attempted, failed / attempted))
    print("# measured pass seconds %s, probe ms %s" % (
        [round(p["wall_raw_s"], 3) for _t, p in passes],
        [round(1000 * statistics.mean(p["probes"]), 4) for _t, p in passes]))
    if trace:
        from tracing import LAYERS, metric_units

        traced_passes = [p for t, p in passes if t]
        units = metric_units()
        for p in traced_passes:
            speed = PROBE_REF_S / statistics.mean(p["probes"])
            for name, unit in units.items():
                if unit == "s":
                    p["layers"][name] *= speed
        values = {name: statistics.median(p["layers"][name] for p in traced_passes)
                  for name in units if name != "trace_overhead"}
        values["trace_overhead"] = statistics.median(
            p["wall_s"] for p in traced_passes) / wall
        modules = list(LAYERS) + ["job"]
        total = sum(values[m + ".self_s"] for m in modules)
        print("# self-time shares: " + ", ".join(
            "%s %.3f" % (m, values[m + ".self_s"] / total) for m in modules))
    else:
        units = END_TO_END
        job_s = [x for p in plain for x in p["job_s"]]
        values = {"wall_s": wall, "job_p50_s": statistics.median(job_s),
                  "job_p90_s": _p90(job_s) if len(job_s) > 1 else job_s[0],
                  "setup_s": statistics.median(
                      setup * PROBE_REF_S / probe for setup, probe in setups),
                  "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain)}
        beyond = sum(1 for x in job_s if x > values["job_p90_s"])
        print("# job_p50_s and job_p90_s over %d job runs (%d jobs x %d passes), "
              "%d beyond p90" % (len(job_s), len(jobs), len(plain), beyond))
    for name, unit in units.items():
        print("%-58s %14.6f %s" % (name, values[name], unit))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Recording the expected outcomes


def record() -> int:
    _use_source_tree()
    import workloads

    expected = {}
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=OUT)
    csv_path = os.path.join(work, "report.csv")
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.pool(workload)
            _write_inputs(jobs, work)
            for job in jobs:
                if os.path.exists(csv_path):
                    os.unlink(csv_path)
                code, report = _call(job, work, csv_path)
                if code != 0:
                    raise SystemExit("bench: %s exited with %d" % (job["key"], code))
                expected[job["key"]] = _outcome(job, code, report, csv_path)
            print("%s: %d jobs recorded" % (workload, len(jobs)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as f:
        f.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(expected.items())))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("sequence", "graph", "shadow"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every tenth job and one pass: a check, not a measurement")
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from the current source")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        _child(args.child, bool(args.trace), args.spans_out)
        return 0
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
