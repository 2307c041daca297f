"""Benchmark of the jortwist command line, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
./src, nothing needs installing.  Each workload is a closed loop with one
client: the jortwist CLI runs as one subprocess per operation, one at a
time, the way a user runs it.  A pass is the workload's operations run back
to back; passes repeat while another one fits in S seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median pass time: the operations' times, each from its
               spawn to its exit, summed
  setup_s      median time from spawning an interpreter to `import
               jortwist.cli` returning, probed several times in the run
  peak_rss_mb  largest ru_maxrss of any operation's process
failed_ratio (operations failing the correctness gate / attempted) is
printed with them and feeds `failed` and `attempted` in the result line.

--trace 1 runs one untraced pass, then one pass in this process with
tracer.py's wrappers installed, and reports the per-layer metrics of
BENCHMARK.json, plus trace.overhead_ratio (traced / untraced pass time).
Spans go to perfbench/out/<workload>-seed<N>.spans.jsonl.gz.

Every operation's output is checked (see `gate`); the last line of stdout
is the JSON result.  A record of the run and the machine goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_FILE = SRC / "jortwist" / "cli.py"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Rationals of equal height, so every seed's u costs about the same.
U_SET = ("1/5", "2/5", "3/5", "4/5")

# Truncation orders: the lowest at which the workload's layers still
# dominate, so a pass lasts a few seconds and a run holds many passes.
COCYCLE_ORDER = 4
SERIES_ORDER = 5

# setup_s probes per batch; one batch runs before every pass and one after
# the last, so the probes sample the whole run and not one moment of it.
SETUP_PROBES = 3

_PROBE = ("import time, jortwist.cli; t = time.perf_counter(); "
          "print(t, jortwist.cli.__file__)")

_LAUNCHER = """
import os, sys, time
fd, argv = int(sys.argv[1]), sys.argv[2:]
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
t1 = time.perf_counter()
os.write(fd, ("%r %r %d %d" % (t0, t1, os.waitstatus_to_exitcode(status),
                               usage.ru_maxrss)).encode())
"""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must show.

    kind "reports": JSON verification reports, all passing, each with every
    grade 0..order passing when `order` is set, and with every string of
    `notes` among the reports' notes.  kind "element": an expanded twist
    truncated at `order`, whose JSON matches its golden digest and
    round-trips through cli.element_from_dict.
    """

    argv: tuple
    kind: str
    order: int | None = None
    notes: tuple = ()


def chain_instances(chain, bound):
    """Instance count of an identity chain, counted from its definition."""
    n = bound + 1
    tri = n * (n + 1) // 2  # pairs 0 <= k' <= k <= bound
    if chain == "R":
        return n * tri
    # L1-L3 and L7: n^2 each; L4, L4r and L8: n * tri each; L5: n^3;
    # L6: n^2 * tri
    return 4 * n * n + 3 * n * tri + n ** 3 + n * n * tri


def series_ops(u):
    """The two expansions at one rational u."""
    n = str(SERIES_ORDER)
    return [Op(("expand", "--family", "R", "--order", n, "--u", u,
                "--format", "json"), "element", order=SERIES_ORDER),
            Op(("expand", "--family", "L", "--inverse", "--order", n,
                "--u", u, "--format", "json"), "element",
               order=SERIES_ORDER)]


def workload_ops(name, seed):
    """The operations of one pass.  The seed picks u for the expansions and
    the order of the operations; the program sees only the argv."""
    rng = random.Random(seed)
    if name == "twists":
        # The noncommutative layers, two ways.  The cocycle check runs
        # three-leg products and coproducts with symbolic u (L directly with
        # the convolution cross-check, R through the inverse).  The
        # expansions use two legs, geometric_inverse instead of coproducts,
        # degree-0 coefficients whose bit sizes grow, and write about 20 kB
        # of JSON each.  DPoly.shift is about 90% of the pass.  A change to
        # the coefficient representation or to the series inverse can win
        # on one and lose on the other; the trace separates them by
        # operation.
        ops = [Op(("verify", "--check", "cocycle", "--order",
                   str(COCYCLE_ORDER), "--format", "json"), "reports",
                  order=COCYCLE_ORDER,
                  notes=("per-order convolution decomposition matches",))]
        ops += series_ops(rng.choice(U_SET))
    elif name == "identities":
        # Commutative only: no TensorElement products, no shifts; mostly
        # DPoly.evaluate under _sample_check.
        ops = [Op(("identities", "--bigident", "--bound", "2",
                   "--format", "json"), "reports"),
               Op(("identities", "--chain", "L", "--bound", "2",
                   "--format", "json"), "reports",
                  notes=("%d instances checked" % chain_instances("L", 2),)),
               Op(("identities", "--chain", "R", "--bound", "3",
                   "--format", "json"), "reports",
                  notes=("%d instances checked" % chain_instances("R", 3),))]
    else:
        raise ValueError("unknown workload %r" % name)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def run_subprocess(op):
    """Run one operation as a CLI process.

    Returns (exit code, stdout, ru_maxrss in KiB, seconds from spawn to
    exit).  A child's ru_maxrss starts at the size of the process that
    spawned it, so the CLI is spawned by a small launcher (_LAUNCHER, a
    bare interpreter smaller than any CLI process) rather than by this
    runner, and the launcher reports the CLI's os.wait4 figures.
    """
    OUT.mkdir(exist_ok=True)
    rfd, wfd = os.pipe()
    with open(rfd, "rb") as report_fh, open(OUT / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-S", "-c", _LAUNCHER, str(wfd),
                 sys.executable, "-m", "jortwist.cli", *op.argv],
                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=ENV,
                pass_fds=(wfd,))
        finally:
            os.close(wfd)
        out, _ = proc.communicate()
        report = report_fh.read().split()
    if proc.returncode != 0 or len(report) != 4:
        raise RuntimeError("launcher failed for %s" % " ".join(op.argv))
    t0, t1, rc, kib = report
    return int(rc), out, int(kib), float(t1) - float(t0)


def run_inprocess(op):
    """Run one operation through jortwist.cli.main: (exit code, stdout)."""
    from jortwist import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue().encode()


def probe_setup(n):
    """n times: seconds from spawning an interpreter to jortwist.cli imported."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=ENV,
                             capture_output=True, text=True, check=True)
        stamp, path = res.stdout.strip().split(None, 1)
        if Path(path).resolve() != CLI_FILE:
            raise RuntimeError("imported %s, not the checkout's %s"
                               % (path, CLI_FILE))
        times.append(float(stamp) - t0)
    return times


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def gate(op, rc, out, golden):
    """Problems with one operation's result; empty when it is correct."""
    if rc != 0:
        return ["exit code %s" % rc]
    try:
        data = json.loads(out)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc]
    if op.kind == "reports":
        return _gate_reports(op, data)
    return _gate_element(op, out, data, golden)


def _gate_reports(op, data):
    reports = data.get("reports") or []
    problems = [] if reports else ["no reports"]
    notes = {n for r in reports for n in r.get("notes", ())}
    for r in reports:
        if r.get("status") != "pass":
            problems.append("%s: status %s" % (r.get("check"), r.get("status")))
        if op.order is not None:
            want = {str(n): "pass" for n in range(op.order + 1)}
            if r.get("grades") != want:
                problems.append("%s: grades %s" % (r.get("check"), r.get("grades")))
    problems += ["missing note %r" % n for n in op.notes if n not in notes]
    return problems


def _gate_element(op, out, data, golden):
    problems = []
    want = golden.get(" ".join(op.argv))
    if want is None:
        problems.append("no golden digest")
    elif hashlib.sha256(out).hexdigest() != want:
        problems.append("sha256 differs from the golden digest")
    if data.get("truncation") != op.order:
        problems.append("truncation %r" % data.get("truncation"))
    from jortwist import cli
    try:
        element = cli.element_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + ["does not load: %r" % (exc,)]
    again = json.dumps(cli.element_to_dict(element), indent=2) + "\n"
    if again.encode() != out:
        problems.append("does not round-trip through element_from_dict")
    return problems


def _gate_all(ops, results, golden, problems, reference=None):
    """Gate each result; with `reference`, each output must also equal the
    reference output of the same operation.  Returns the failed count."""
    failed = 0
    for i, (op, (rc, out)) in enumerate(zip(ops, results)):
        found = gate(op, rc, out, golden)
        if reference is not None and out != reference[i][1]:
            found.append("output differs from the untraced run")
        if found:
            failed += 1
            problems.append({"argv": " ".join(op.argv), "problems": found})
    return failed


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(ops, seconds, golden):
    """Untraced run: passes back to back while they fit in `seconds`
    (always at least one)."""
    walls, setups, problems = [], [], []
    op_times = {" ".join(op.argv): [] for op in ops}
    rss_kib = attempted = failed = 0
    start = time.perf_counter()
    while True:
        setups += probe_setup(SETUP_PROBES)
        results = [run_subprocess(op) for op in ops]
        walls.append(sum(r[3] for r in results))
        for op, r in zip(ops, results):
            op_times[" ".join(op.argv)].append(r[3])
        rss_kib = max([rss_kib] + [r[2] for r in results])
        attempted += len(ops)
        failed += _gate_all(ops, [r[:2] for r in results], golden, problems)
        # start another pass only if it should end within the run's time
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    setups += probe_setup(SETUP_PROBES)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "passes_s": walls, "setup_probes_s": setups, "ops_s": op_times,
            "metrics": {"wall_s": statistics.median(walls),
                        "setup_s": statistics.median(setups),
                        "peak_rss_mb": rss_kib / 1024}}


def measure_traced(ops, golden, spans_path=None):
    """One untraced pass as subprocesses, then one traced pass in-process.

    Both passes are gated, and the traced outputs must be byte-identical
    to the untraced ones.
    """
    plain = [run_subprocess(op) for op in ops]
    plain_wall = sum(r[3] for r in plain)
    plain = [r[:2] for r in plain]

    t0 = time.perf_counter()
    import jortwist.cli
    import_s = time.perf_counter() - t0
    if Path(jortwist.cli.__file__).resolve() != CLI_FILE:
        raise RuntimeError("imported %s, not the checkout's %s"
                           % (jortwist.cli.__file__, CLI_FILE))

    tracer = Tracer()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    traced = []
    with tracer:
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append(run_inprocess(op))
    traced_wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    problems = []
    failed = _gate_all(ops, plain, golden, problems)
    failed += _gate_all(ops, traced, golden, problems, reference=plain)
    if spans_path is not None:
        tracer.write_spans(spans_path)
    extra = {
        "cli.import_s": import_s,
        "cli.output_bytes": sum(len(out) for _, out in traced),
        "proc.cpu_s": (cpu1.ru_utime - cpu0.ru_utime
                       + cpu1.ru_stime - cpu0.ru_stime),
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    return {"attempted": 2 * len(ops), "failed": failed, "problems": problems,
            "plain_s": plain_wall, "traced_s": traced_wall,
            "spans": len(tracer.spans), "tracer": tracer, "extra": extra}


def per_layer(names, traced):
    return {n: (traced["extra"][n] if n in traced["extra"]
                else traced["tracer"].value(n)) for n in names}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine_record(seed):
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
    return {"nproc": nproc, "python": platform.python_version(), "cpu": cpu,
            "load_before": os.getloadavg(), "seed": seed, "commit": commit}


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}})


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not CLI_FILE.is_file():
        parser.exit(2, "run.py: no jortwist sources at %s\n" % CLI_FILE)
    sys.path.insert(0, str(SRC))

    record = machine_record(args.seed)
    ops = workload_ops(args.workload, args.seed)
    golden = json.loads(GOLDEN.read_text())
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    if args.trace:
        metric_spec = spec["per_layer"]
        run = measure_traced(ops, golden, OUT / (stem + ".spans.jsonl.gz"))
        metrics = per_layer([m["name"] for m in metric_spec], run)
        detail = {"untraced_pass_s": run["plain_s"],
                  "traced_pass_s": run["traced_s"], "spans": run["spans"]}
    else:
        metric_spec = spec["end_to_end"]
        run = measure(ops, args.seconds, golden)
        metrics = {m["name"]: run["metrics"][m["name"]] for m in metric_spec}
        detail = {"passes_s": run["passes_s"],
                  "setup_probes_s": run["setup_probes_s"],
                  "ops_s": run["ops_s"]}
    units = {m["name"]: m["unit"] for m in metric_spec}
    record["load_after"] = os.getloadavg()
    record["loaded"] = max(record["load_before"][0],
                           record["load_after"][0]) > record["nproc"]
    attempted, failed = run["attempted"], run["failed"]

    print("workload %s  seed %d  trace %d  ops %s"
          % (args.workload, args.seed, args.trace,
             " | ".join(" ".join(op.argv) for op in ops)))
    for name, value in metrics.items():
        print("  %-44s %.6g %s" % (name, value, units[name]))
    print("  %-44s %.6g fraction (%d of %d)"
          % ("failed_ratio", failed / attempted, failed, attempted))
    for key, value in detail.items():
        count = " (n=%d)" % len(value) if isinstance(value, list) else ""
        print("  %s%s: %s" % (key, count, value))
    for p in run["problems"]:
        print("  FAILED %s: %s" % (p["argv"], "; ".join(p["problems"])))
    print("  machine: %s" % json.dumps(record))
    if record["loaded"]:
        print("  WARNING: load average above nproc; timings are suspect")
    with open(OUT / ("%s-trace%d.json" % (stem, args.trace)), "w") as fh:
        json.dump({"workload": args.workload, "machine": record,
                   "metrics": metrics, "failed_ratio": failed / attempted,
                   "problems": run["problems"], **detail}, fh, indent=2)
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
