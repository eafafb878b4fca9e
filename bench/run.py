"""structexp benchmark: speed relative to a frozen series exponential.

    python3 bench/run.py --workload auto_mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seconds 5          # every workload in turn
    python3 bench/run.py --selfcheck

Each workload is a single-process closed loop with one caller. Every program
call is timed next to the benchmark's frozen copy of the series exponential
(frozen.py) on the same input, alternating which runs first, so the gated
metrics are ratios that cancel the host's drift in speed:

    speedup    sum of frozen times / sum of program times
    lat_p50_x  median over calls of program time / frozen time
    lat_p99_x  99th percentile of the same ratio
    pass_share ops that did not fail / ops attempted (1 - fail_share; a
               share of passes is never 0, as a gated metric must not be)
    setup_s    median over fresh interpreters of import structexp plus a
               first expm_auto per family (numpy already imported), in
               seconds on a nominal host: scaled by the frozen series' speed
               in the same interpreter (see setup_seconds)

Call times are process CPU time (all threads), which leaves out the time the
host gives other processes; wall-clock figures are reported as host.*. A run
whose program calls spend more of their wall time off the CPU than the
reference calls do is refused, since CPU time would hide that waiting.

A run draws a fixed pool of distinct inputs from its seed and cycles over
it for its seconds. Each pool input is one op: `attempted` is the pool size,
and an op fails when any of its calls fails, so `failed` depends on the seed
and the program alone, not on how many calls fit into the run. An op fails
when it raises, returns non-finite values, or is further than
frozen.FAIL_TOL (structexp's VERIFY_TOL) from the frozen reference; on
verify_cli, when a valid document exits non-zero or does not list the route
that generated it, or an invalid one raises out of `cli.run` or exits 0.
Failures are counted, with their input kind, in `failed` and `pass_share`
(over the pool); `correct` is false when the benchmark cannot judge the run: the frozen
reference failed on a valid input, the program waited off the CPU, or the
trace's self times do not add up to its root spans.

With --trace 1 the first half of the run is untraced (per-family speed-ups,
host.* figures) and the second half traced (tracing.py); the result lists
the per-layer metrics. The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# one caller on 4x4 matrices: keep BLAS from starting idle worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import frozen  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("auto_mixed", "forced_family", "verify_cli")
SETUP_PROBES = 21
# frozen-series CPU time per call on the set-up inputs of the nominal host
# that setup_s is expressed on (about that of a 2-core x86 container)
NOMINAL_REF_CALL_S = 120e-6
# a p99 needs at least ten samples beyond it
MIN_SAMPLES = 1000
# distinct inputs per run; one pass over the pool takes 5 to 9 s of a 20 s
# run on a 2-core x86 container, and every run makes at least one pass
POOL_SIZE = {"auto_mixed": 6000, "forced_family": 6000, "verify_cli": 6000}
REF_CHECK_INPUTS = 48
# allowed excess of the program's off-CPU share of wall time over the reference's
OFF_CPU_SLACK = 0.05
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def load_structexp():
    if not (SRC / "structexp" / "__init__.py").is_file():
        raise SystemExit(f"error: no structexp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import structexp
    import structexp.cli  # noqa: F401  (not imported by the package)
    if Path(structexp.__file__).resolve().parent != SRC / "structexp":
        raise SystemExit(f"error: imported structexp from {structexp.__file__}")
    return structexp


def make_workload(name, rng):
    """(input stream, program call, judge) for one workload. The call looks
    its entry point up on each op, so a traced run sees the wrapped one."""
    mods = sys.modules
    if name in ("auto_mixed", "forced_family"):
        auto = name == "auto_mixed"

        def call(item):
            es = mods["structexp.expm_structured"]
            if auto:
                return es.expm_auto(item.a).value
            return es.expm_auto(item.a, method=item.kind).value

        return inputs.matrix_stream(rng, dense=auto), call, judge_matrix

    def call(item):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = mods["structexp.cli"].run(["verify", item.text, "--all-routes"])
        return code, sink.getvalue()

    return inputs.doc_stream(rng), call, judge_verify


def make_pool(workload, seed):
    """(the run's input pool, program call, judge)."""
    stream, call, judge = make_workload(workload, np.random.default_rng(seed))
    return list(itertools.islice(stream, POOL_SIZE[workload])), call, judge


def judge_matrix(item, out, exc, ref):
    if exc is not None:
        return f"raised {type(exc).__name__}"
    out = np.asarray(out)
    if not np.all(np.isfinite(out)):
        return "non-finite result"
    if ref is not None and not frozen.rel_error(out, ref) <= frozen.FAIL_TOL:
        return "rel_error above 1e-10"
    return None


def judge_verify(item, out, exc, ref):
    if isinstance(exc, SystemExit):
        return f"raised SystemExit({exc.code})"
    if exc is not None:
        return f"raised {type(exc).__name__}"
    code, text = out
    if not item.valid:
        return "invalid document exit 0" if code == 0 else None
    if code != 0:
        return f"valid document exit {code}"
    # the route that generated the input must be among those verified
    routes = {line.split()[0] for line in text.splitlines() if line.strip()}
    if item.route not in routes:
        return f"route {item.route} not verified"
    return None


class Run:
    """Records of one measured phase, one entry per call: pool index and
    input kind, failure reason (None if the call passed), and the process CPU
    and wall-clock ns of the program call and of the frozen reference (None
    when the input has no reference: an invalid document)."""

    def __init__(self):
        self.index, self.kinds, self.fails = [], [], []
        self.cpu_prog, self.wall_prog = [], []
        self.cpu_ref, self.wall_ref = [], []
        self.cpu_scipy = []          # (kind, ns), traced runs only
        self.ref_missing = 0         # valid inputs the frozen reference failed on

    def paired(self, kind=None, clock="cpu"):
        """(reference ns, program ns) arrays over the ops that have both."""
        ref = getattr(self, f"{clock}_ref")
        prog = getattr(self, f"{clock}_prog")
        rows = [(r, p) for k, r, p in zip(self.kinds, ref, prog)
                if r is not None and (kind is None or k == kind)]
        return (np.array([r for r, _ in rows], dtype=float),
                np.array([p for _, p in rows], dtype=float))

    def speedup(self, kind=None):
        ref, prog = self.paired(kind)
        return float(ref.sum() / prog.sum()) if prog.size else 0.0

    def failing(self):
        """pool index -> (input kind, reason of its first failed call)."""
        out = {}
        for i, kind, reason in zip(self.index, self.kinds, self.fails):
            if reason is not None and i not in out:
                out[i] = (kind, reason)
        return out

    def waits_off_cpu(self):
        """True when program calls spend a larger share of their wall time
        off the CPU than the reference calls do, which CPU-time ratios would
        hide."""
        shares = []
        for ref_or_prog in (0, 1):
            cpu = self.paired(clock="cpu")[ref_or_prog].sum()
            wall = self.paired(clock="wall")[ref_or_prog].sum()
            shares.append(1.0 - cpu / wall)
        return shares[1] > shares[0] + OFF_CPU_SLACK


def timed(fn, arg):
    w0, c0 = time.perf_counter_ns(), time.process_time_ns()
    try:
        out, exc = fn(arg), None
    except (Exception, SystemExit) as e:   # failures are judged, not raised
        out, exc = None, e
    c1, w1 = time.process_time_ns(), time.perf_counter_ns()
    return w1 - w0, c1 - c0, out, exc


def measure(pool, call, judge, seconds, run, scipy_expm=None):
    """Closed loop over the pool, from its start, for `seconds` of wall
    time, and on until every pool input has run and MIN_SAMPLES calls have a
    reference: per call one program call and one frozen-reference call on the
    same input, alternating which is first."""
    deadline = time.perf_counter() + seconds
    paired = 0
    for i in itertools.cycle(range(len(pool))):
        if (time.perf_counter() >= deadline and paired >= MIN_SAMPLES
                and len(run.kinds) >= len(pool)):
            break
        item = pool[i]
        # invalid documents have no reference
        no_ref = (None, None, None, None)
        if len(run.kinds) % 2:
            w_prog, c_prog, out, exc = timed(call, item)
            w_ref, c_ref, ref, ref_exc = timed(frozen.expm_series, item.a) if item.valid else no_ref
        else:
            w_ref, c_ref, ref, ref_exc = timed(frozen.expm_series, item.a) if item.valid else no_ref
            w_prog, c_prog, out, exc = timed(call, item)
        if ref_exc is not None:
            run.ref_missing += 1
            w_ref = c_ref = None
        paired += c_ref is not None
        if scipy_expm is not None and item.valid:
            c0 = time.process_time_ns()
            scipy_expm(item.a)
            run.cpu_scipy.append((item.kind, time.process_time_ns() - c0))
        run.index.append(i)
        run.kinds.append(item.kind)
        run.fails.append(judge(item, out, exc, ref))
        run.cpu_prog.append(c_prog)
        run.wall_prog.append(w_prog)
        run.cpu_ref.append(c_ref)
        run.wall_ref.append(w_ref)
    return run


def end_to_end(run, attempted, failed):
    ref, prog = run.paired()
    p50, p99 = np.percentile(prog / ref, [50, 99])
    return {
        "speedup": (float(ref.sum() / prog.sum()), "ratio"),
        "lat_p50_x": (float(p50), "ratio"),
        "lat_p99_x": (float(p99), "ratio"),
        "pass_share": ((attempted - failed) / attempted, "fraction"),
    }


def host_metrics(run):
    """Raw wall-clock figures, from which absolute speed can be recovered."""
    prog = np.array(run.wall_prog, dtype=float)
    ref, _ = run.paired(clock="wall")
    cpu = np.array(run.cpu_prog, dtype=float)
    p50, p99 = np.percentile(prog, [50, 99]) / 1e3
    return {
        "host.raw_ops_per_s": (float(prog.size / prog.sum() * 1e9), "1/s"),
        "host.raw_lat_p50_us": (float(p50), "us"),
        "host.raw_lat_p99_us": (float(p99), "us"),
        "host.calib_us": (float(np.median(ref) / 1e3), "us"),
        "host.off_cpu_share": (float(1.0 - cpu.sum() / prog.sum()), "fraction"),
    }


def setup_seconds(seed):
    """Calibrated set-up time: the median over fresh interpreters of set-up
    CPU time x NOMINAL_REF_CALL_S / the frozen series' CPU time per call in
    the same interpreter, so a host running slower or faster between runs
    does not move it. One discarded warm-up probe first writes the bytecode
    caches. Also returns the raw wall-clock samples."""
    calibrated, wall = [], []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        cpu, ref_call, wall_s = map(float, proc.stdout.split()[-3:])
        if k:
            calibrated.append(cpu * NOMINAL_REF_CALL_S / ref_call)
            wall.append(wall_s)
    return float(np.median(calibrated)), wall


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "structexp").rglob("*.py")))


def nproc():
    return len(os.sched_getaffinity(0))




def print_failures(pool, failing):
    """Attempted and failed ops per input kind, with the reasons."""
    table = {}
    for i, item in enumerate(pool):
        row = table.setdefault(item.kind, [0, 0, {}])
        row[0] += 1
        if i in failing:
            reason = failing[i][1]
            row[1] += 1
            row[2][reason] = row[2].get(reason, 0) + 1
    print("failures by input kind (failed/attempted, reasons):")
    failing = [(k, r) for k, r in sorted(table.items()) if r[1]]
    for kind, (n, nf, reasons) in failing:
        why = ", ".join(f"{r} x{c}" for r, c in sorted(reasons.items()))
        print(f"  {kind:<22} {nf}/{n}  {why}")
    if not failing:
        print("  none")


def layer_metrics(tracer, traced):
    """Per-span metrics of the traced phase, per call. Self times of all
    spans add up to the root spans' total duration; the share checks that."""
    stats = tracer.stats
    ops = len(traced.kinds)
    root_ns = stats[tracing.ROOT_SPAN].total_ns
    out = {}
    for name in tracing.SPAN_NAMES:
        s = stats.get(name, tracing.SpanStats())
        out[f"{name}.calls_per_op"] = (s.calls / ops, "count")
        out[f"{name}.self_us"] = (s.self_ns / s.calls / 1e3 if s.calls else 0.0, "us")
        out[f"{name}.self_share"] = (s.self_ns / root_ns, "fraction")
    ext = stats.get(tracing.EXTRACT_SPAN, tracing.SpanStats())
    out["classify.match_ratio"] = (ext.matched / ext.calls if ext.calls else 0.0, "ratio")
    cov = stats.get("covering.exp_via_covering", tracing.SpanStats())
    out["covering.accept_ratio"] = (
        (cov.calls - cov.raised) / cov.calls if cov.calls else 0.0, "ratio")
    out[f"{tracing.ROOT_SPAN}.self_share"] = (stats[tracing.ROOT_SPAN].self_ns / root_ns, "fraction")
    out["trace.accounted"] = (sum(s.self_ns for s in stats.values()) / root_ns, "ratio")
    return out


def family_metrics(run):
    """Speed-up over the frozen series per family tag (0 when no input of
    the family ran), and the number of families faster than it."""
    out = {}
    for tag in inputs.FAMILY_TAGS:
        out[f"expm_structured.speedup.{tag}"] = (run.speedup(tag), "ratio")
    faster = sum(v > 1.0 for v, _ in out.values())
    out["expm_structured.families_faster_than_series"] = (faster, "count")
    return out


def print_family_table(run):
    scipy_ns = {}
    for kind, t in run.cpu_scipy:
        scipy_ns[kind] = scipy_ns.get(kind, 0) + t
    print("per family (untraced half): ops, speedup over the frozen series"
          + (", speedup over scipy.linalg.expm" if scipy_ns else ""))
    for tag in inputs.FAMILY_TAGS:
        _, prog = run.paired(tag)
        line = f"  {tag:<20} {prog.size:6d}  {run.speedup(tag):8.4f}"
        if tag in scipy_ns:
            line += f"  {scipy_ns[tag] / prog.sum():8.4f}"
        print(line)


def valid_inputs(workload, seed, count):
    """The workload's first `count` inputs that have a frozen reference."""
    stream, _, _ = make_workload(workload, np.random.default_rng(seed))
    return list(itertools.islice((it for it in stream if it.valid), count))


def reference_check(structexp, workload, seed):
    """Largest relative distance between the frozen reference and the
    library's own expm_series on the workload's first valid inputs."""
    return max(frozen.rel_error(structexp.expm_series(it.a), frozen.expm_series(it.a))
               for it in valid_inputs(workload, seed, REF_CHECK_INPUTS))


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_untraced(workload, seed, seconds):
    setup_s, samples = setup_seconds(seed)
    pool, call, judge = make_pool(workload, seed)
    run = measure(pool, call, judge, seconds, Run())
    failing = run.failing()
    n, failed = len(pool), len(failing)
    metrics = end_to_end(run, n, failed)
    metrics["setup_s"] = (setup_s, "s")
    print(f"ops {n}, calls {len(run.kinds)}, ratio samples {run.paired()[0].size}, "
          f"failed {failed}, fail_share {failed / n:.6f}")
    print(f"set-up wall seconds on this host: {' '.join(f'{s:.4f}' for s in samples)}")
    for k, (v, u) in {**metrics, **host_metrics(run)}.items():
        print(f"  {k:<22} {v:14.6f} {u}")
    print_failures(pool, failing)
    valid = run.ref_missing == 0 and not run.waits_off_cpu()
    emit(valid, n, failed, metrics)


def run_traced(workload, seed, seconds):
    try:
        import scipy.linalg
        scipy_expm = scipy.linalg.expm
    except ImportError:
        scipy_expm = None
    pool, call, judge = make_pool(workload, seed)
    untraced = measure(pool, call, judge, seconds / 2, Run(), scipy_expm)
    tracer = tracing.Tracer()
    for name in tracer.install():
        print(f"trace: no entry point {name} in this version; its span stays empty")
    try:
        traced = measure(pool, tracer.root(call), judge, seconds / 2, Run())
    finally:
        tracer.uninstall()

    runs = (untraced, traced)
    failing = {**traced.failing(), **untraced.failing()}
    n, failed = len(pool), len(failing)
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead"] = (untraced.speedup() / traced.speedup(), "ratio")
    metrics.update(family_metrics(untraced))
    metrics.update(host_metrics(untraced))
    metrics["host.nproc"] = (nproc(), "count")
    metrics["context.src_lines"] = (src_lines(), "lines")
    metrics["fail_share"] = (failed / n, "fraction")

    print(f"ops {n}, calls untraced {len(untraced.kinds)}, traced {len(traced.kinds)}, "
          f"failed {failed}")
    print(f"{'span':<38} {'calls/op':>10} {'self_us':>10} {'self_share':>10}")
    for name in tracing.SPAN_NAMES:
        print(f"{name:<38} {metrics[name + '.calls_per_op'][0]:10.3f} "
              f"{metrics[name + '.self_us'][0]:10.2f} "
              f"{metrics[name + '.self_share'][0]:10.4f}")
    print_family_table(untraced)
    for k, (v, u) in metrics.items():
        if k.rsplit(".", 1)[0] not in tracing.SPAN_NAMES \
                and not k.startswith("expm_structured.speedup."):
            print(f"  {k:<44} {v:14.6f} {u}")
    print_failures(pool, failing)
    accounted = abs(metrics["trace.accounted"][0] - 1.0) < 1e-9
    valid = accounted and not untraced.waits_off_cpu() and all(
        r.ref_missing == 0 for r in runs)
    emit(valid, n, failed, metrics)


def selfcheck(structexp):
    """The frozen kernel against the library's expm_series (roundoff) and,
    when scipy is importable, against scipy.linalg.expm (well inside the
    failure threshold), on every workload's inputs and on every family at
    the top of the scale range."""
    try:
        import scipy.linalg
        scipy_expm = scipy.linalg.expm
    except ImportError:
        scipy_expm = None
    cases = [(it.kind, it.a) for name in WORKLOADS for seed in range(3)
             for it in valid_inputs(name, seed, 300)]
    rng = np.random.default_rng(0)
    for _ in range(20):
        cases += [(tag, inputs.SCALE_MAX * inputs.family_member(tag, rng))
                  for tag in inputs.FAMILY_TAGS]
        cases += [(f"covering:{alg}", inputs.SCALE_MAX * inputs.covering_member(alg, rng))
                  for alg in inputs.COVERING_FORMS]

    lib_worst = scipy_worst = 0.0
    scipy_kind = ""
    for kind, a in cases:
        ref = frozen.expm_series(a)
        lib_worst = max(lib_worst, frozen.rel_error(structexp.expm_series(a), ref))
        if scipy_expm is not None:
            err = frozen.rel_error(ref, scipy_expm(a))
            if err > scipy_worst:
                scipy_worst, scipy_kind = err, kind
    print(f"{len(cases)} inputs")
    print(f"frozen vs structexp.expm_series: max rel_error {lib_worst:.3e} (limit 1e-14)")
    ok = lib_worst <= 1e-14
    if scipy_expm is None:
        print("scipy not importable: scipy check skipped")
    else:
        print(f"frozen vs scipy.linalg.expm: max rel_error {scipy_worst:.3e} "
              f"on {scipy_kind} (limit {frozen.FAIL_TOL / 4:.1e})")
        ok = ok and scipy_worst <= frozen.FAIL_TOL / 4
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                        help="one workload, or all in turn (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the frozen reference and exit")
    args = parser.parse_args(argv)
    structexp = load_structexp()
    if args.selfcheck:
        return selfcheck(structexp)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        worst = reference_check(structexp, workload, args.seed)
        print(f"workload {workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}; one caller, closed loop; nproc {nproc()}; "
              f"src/structexp {src_lines()} lines")
        print(f"frozen reference vs structexp.expm_series on {REF_CHECK_INPUTS} inputs: "
              f"max rel_error {worst:.3e}")
        (run_traced if args.trace else run_untraced)(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
