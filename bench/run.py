"""gradedseries benchmark: seeded workloads, end-to-end metrics, traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the slots and oracles):

* scenarios: the bundled .scn files plus seeded generated scenario files
  (trace, brute-force molien and classify on +-1-skew quantum affine spaces
  under signed-permutation and diagonal root-of-unity actions), each run
  in-process through ``cli.main(["run", <file>, "--json"])``;
* invariants: seeded monomial matrix groups over Q(zeta_N): closure,
  subgroups, charpoly traces, molien and classify_group;
* resolutions: seeded monomial quotients and +-1-skew quantum affine
  spaces: build_truncation, betti_numbers and euler_check.

The load is a closed loop in one process and one thread: a job starts when
the previous one has returned.  The run goes through the seeded job list in
passes.  Each job's output is checked by its oracle after the job, outside
its timer.

A shared machine changes speed as other processes take its cores and
caches: on a 2-vCPU virtual machine a fixed pass of jobs took from 4.5 s to
8.3 s within two minutes, in CPU time as much as in wall time, so absolute
times of one run say more about the machine than about the program.  The
gated timings are therefore ratios to a yardstick run in the same process:
``bench/reference/gradedseries`` is a verbatim copy of ``src/gradedseries``
as it was when the benchmark was defined, loaded under another name, and it
never changes.  Each job runs on the program and on the reference back to
back (which goes first alternates), on equal inputs, so both see the same
machine; the same pass run twice that way agreed within 5% while the
machine's speed moved 1.9x.  A single job still varies by about 15% from one
run to the next, so the ratios are taken over sums of many jobs' times.  A
ratio of 1 means as fast as the code the benchmark was defined on; twice as
fast reads 0.5 for the job_s ratios and 2 for jobs_per_s_vs_ref.

Two things change a job's work from one process to the next, and a run
fixes both: str hashing, which orders the library's sets and dicts (the
script re-executes itself with PYTHONHASHSEED=0 unless that is set), and the
heap the cyclic garbage collector walks (each job starts after a full
collection, outside its timer).

``--trace 0`` runs one whole pass of pairs and then, until ``--seconds`` are
up, more passes in which a job runs only while its last pair still fits,
and prints the end-to-end metrics from each job's mean times; the absolute
job times are printed too, ungated.  ``--trace 1`` runs each job untraced
and traced, back to back, in passes while time remains, and prints the
per-layer metrics of tracer.PER_LAYER, per pass.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Generated inputs and the spans of a traced run are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import namedtuple
from time import perf_counter

_START = perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("scenarios", "invariants", "resolutions")
REFERENCE = os.path.join(ROOT, "bench", "reference", "gradedseries")
REFERENCE_NAME = "gradedseries_reference"
SETUP_PROBES = 7
TAIL_BEYOND = 10
HASH_SEED = "0"

END_TO_END_UNITS = {
    "jobs_per_s_vs_ref": "ratio",
    "job_s_p50_vs_ref": "ratio",
    "job_s_tail_vs_ref": "ratio",
    "pass_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, then print "
                             "the time that took (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load(workload, seed, with_reference=False):
    """Import the package from this checkout's src/ and build the jobs, with
    their reference runs when asked."""
    if not os.path.isfile(os.path.join(SRC, "gradedseries", "__init__.py")):
        raise SystemExit(f"error: no gradedseries package under {SRC}")
    sys.path.insert(0, SRC)
    import gradedseries
    if os.path.dirname(os.path.dirname(gradedseries.__file__)) != SRC:
        raise SystemExit(f"error: imported gradedseries from "
                         f"{gradedseries.__file__}, not from {SRC}")
    import workloads
    ref = load_reference() if with_reference else None
    return workloads.JOB_LISTS[workload](seed, ROOT, ref)


def load_reference():
    """Import the frozen copy of the package under REFERENCE_NAME."""
    spec = importlib.util.spec_from_file_location(
        REFERENCE_NAME, os.path.join(REFERENCE, "__init__.py"),
        submodule_search_locations=[REFERENCE])
    module = importlib.util.module_from_spec(spec)
    sys.modules[REFERENCE_NAME] = module
    spec.loader.exec_module(module)
    importlib.import_module(REFERENCE_NAME + ".cli")
    return module


def measure_setup(args):
    """Median time, over fresh processes, to import and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


Sample = namedtuple("Sample", "label seconds failures")


def time_reference(job):
    gc.collect()
    start = perf_counter()
    job.reference()
    return perf_counter() - start


def run_job(job, samples, tracer=None):
    """Run one job (inside a root span when tracing) and then its oracle;
    returns the job's time."""
    output = error = None
    # each job starts from a collected heap, so the collections that fall
    # inside it are the same on every run
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            output = job.run()
        else:
            output = tracer.span("bench.job", job.run)
    except Exception:
        error = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    try:
        failures = [f"raised {error}"] if error else job.check(output)
    except Exception:
        failures = [f"oracle raised {traceback.format_exc(limit=3)}"]
    if tracer is not None:
        tracer.enabled = True
    samples.append(Sample(job.label, elapsed, failures))
    return elapsed


def tail(times):
    """The highest percentile of times with at least TAIL_BEYOND values above
    it.  Returns (value, percentile, values beyond)."""
    if len(times) <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} jobs")
    k = len(times) - TAIL_BEYOND - 1
    return sorted(times)[k], 100.0 * (k + 1) / len(times), TAIL_BEYOND


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as handle:
                return handle.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def print_job_kinds(samples):
    kinds = {}
    for s in samples:
        kinds.setdefault(s.label, []).append(s.seconds)
    print("per job kind (count, median s, min s):")
    for label, times in kinds.items():
        print(f"  {label:40s} {len(times):4d} {statistics.median(times):9.4f} "
              f"{min(times):9.4f}")


def report_failures(samples):
    failed = [s for s in samples if s.failures]
    for s in failed[:5]:
        print(f"FAILED {s.label}: {s.failures}", file=sys.stderr)
    return len(failed)


def bands(reference):
    """Indices of the TAIL_BEYOND jobs around the median and of the
    TAIL_BEYOND beyond the tail percentile, ranked by reference time."""
    order = sorted(range(len(reference)), key=reference.__getitem__)
    middle = (len(order) - TAIL_BEYOND) // 2
    return order[middle:middle + TAIL_BEYOND], order[-TAIL_BEYOND:]


def end_to_end(args, jobs):
    setup_s = measure_setup(args)
    samples = []
    n = len(jobs)
    program = [0.0] * n
    reference = [0.0] * n
    runs = [0] * n
    pair_s = [0.0] * n
    bad = [False] * n
    gc.collect()
    deadline = perf_counter() + args.seconds
    passes = 0
    # one whole pass, then more passes in which a job runs only while its
    # last pair still fits before the deadline
    while True:
        ran = False
        for index, job in enumerate(jobs):
            start = perf_counter()
            if passes and start + pair_s[index] > deadline:
                continue
            if (index + passes) % 2:
                reference[index] += time_reference(job)
                program[index] += run_job(job, samples)
            else:
                program[index] += run_job(job, samples)
                reference[index] += time_reference(job)
            bad[index] |= bool(samples[-1].failures)
            runs[index] += 1
            pair_s[index] = perf_counter() - start
            ran = True
        if not ran:
            break
        passes += 1
    failed = report_failures(samples)
    passed = n - sum(bad)
    # each job's mean time on either side
    program = [t / k for t, k in zip(program, runs)]
    reference = [t / k for t, k in zip(reference, runs)]
    middle, top = bands(reference)

    def ratio(band):
        return (sum(program[i] for i in band)
                / sum(reference[i] for i in band))

    metrics = {
        "jobs_per_s_vs_ref": passed / n / ratio(range(n)),
        "job_s_p50_vs_ref": ratio(middle),
        "job_s_tail_vs_ref": ratio(top),
        "pass_frac": 1 - failed / len(samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"each job ran {min(runs)} to {max(runs)} times on the program and "
          f"as often on the reference; jobs: {len(samples)}, failed: "
          f"{failed}, failed_frac: {failed / len(samples):.4f} ratio")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"from each job's mean time: jobs_per_s_vs_ref is the program's "
          f"passing jobs per second over the reference's jobs per second, "
          f"all {n} jobs; job_s_p50_vs_ref is the program's time over the "
          f"reference's on the {TAIL_BEYOND} jobs around the reference's "
          f"median job, job_s_tail_vs_ref on the {TAIL_BEYOND} beyond its "
          f"tail percentile; peak_rss_mb is of this process, which holds "
          f"both; setup_s is the median of {SETUP_PROBES} fresh processes")
    print("absolute figures, from each job's mean time (not gated: they "
          "follow the machine's speed):")
    for side, times, good in (("program", program, passed),
                              ("reference", reference, n)):
        value, pct, beyond = tail(times)
        print(f"  {side:9s} jobs_per_s {good / sum(times):8.4f} jobs/s, "
              f"job_s_p50 {statistics.median(times):8.4f} s, job_s_tail "
              f"{value:8.4f} s (p{pct:.1f}, {beyond} beyond it)")
    print_job_kinds(samples)
    return samples, {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                     for name, value in metrics.items()}


def per_layer(args, jobs):
    from tracer import LAYERS, PER_LAYER, Tracer

    tracer = Tracer()
    samples = []
    untraced = 0.0
    passes = 0
    gc.collect()
    deadline = perf_counter() + args.seconds
    pass_s = 0.0
    while passes < 1 or perf_counter() + pass_s <= deadline:
        pass_start = perf_counter()
        # each job runs untraced and traced back to back, in alternating
        # order, so the overhead estimate sees the same machine state
        for index, job in enumerate(jobs):
            for traced in ((False, True) if (index + passes) % 2 == 0
                           else (True, False)):
                if not traced:
                    untraced += run_job(job, samples)
                    continue
                tracer.install()
                tracer.enabled = True
                try:
                    run_job(job, samples, tracer)
                finally:
                    tracer.enabled = False
                    tracer.uninstall()
        tracer.end_pass()
        pass_s = perf_counter() - pass_start
        passes += 1
    failed = report_failures(samples)
    raw = tracer.metrics(untraced)
    values = {name: raw[name] if PER_LAYER[name][0] == "ratio"
              else raw[name] / passes for name in PER_LAYER}
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(path)
    print(f"passes: {passes}, each job untraced and traced; jobs: "
          f"{len(samples)}, failed: {failed}; spans written to {path}")
    layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    print(f"per pass: layer self times sum to {layer_sum:.6g} s, the traced "
          f"pass; it is the {values['trace.untraced_pass_s']:.6g} s untraced "
          f"pass plus {values['trace.overhead_s']:.6g} s tracing overhead, "
          f"which the self times include (each layer's wrapper time counts "
          f"in its own self time)")
    print("per-layer metrics, per pass (unit; moves which end-to-end metric "
          "on which workload):")
    for name, (unit, moves, workload) in PER_LAYER.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit:6s} {moves} on "
              f"{workload}")
    print_job_kinds(samples)
    return samples, {name: {"value": values[name], "unit": PER_LAYER[name][0]}
                     for name in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    jobs = load(args.workload, args.seed,
                with_reference=not (args.setup_probe or args.trace))
    if args.setup_probe:
        print(json.dumps({"setup_s": perf_counter() - _START}))
        return 0
    print(f"gradedseries benchmark: workload {args.workload}, seed "
          f"{args.seed}, seconds {args.seconds:g}, trace {args.trace}; python "
          f"{platform.python_version()}, PYTHONHASHSEED "
          f"{os.environ.get('PYTHONHASHSEED')}, nproc {os.cpu_count()}, "
          f"commit {commit()}, {len(jobs)} jobs per pass")
    measure = per_layer if args.trace else end_to_end
    samples, metrics = measure(args, jobs)
    failed = sum(1 for s in samples if s.failures)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        # str hashing sets the iteration order of the library's sets and
        # dicts, and that order changes a job's work by up to 1.5x from one
        # process to the next; a fixed hash seed makes runs comparable
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
