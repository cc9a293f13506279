"""Benchmark of muhermite: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
its ``src`` directory.  Workloads (see README.md for why each exists):

  verify_suite  each op is one fresh ``python -m muhermite verify --json`` process
  apply_warm    rules built once for a fixed mu set, then the same operator bundle per op
  mu_sweep      each op performs every mu-dependent build for a mu not seen before

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it runs traced parts of all three workloads, the named one
for ``--seconds`` and the other two for one short round each, and
reports the per-layer metrics.  The last line of standard output is one
JSON object; the full record, spans included, is written under
``perfbench/results``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, in this process and in every child: on a 2-core
# host threading adds scheduler noise, and one thread keeps reductions in
# a fixed order.
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("verify_suite", "apply_warm", "mu_sweep")
SETUP_REPEATS = 5  # fresh processes per run; setup_s is their median
REF_NOMINAL_S = 0.010  # reference time that turns reference units back into seconds (see end_to_end)
DEADLINE_S = 170  # the whole run, whatever --seconds says
MIN_OPS = {"apply_warm": 5, "mu_sweep": 3}  # of a traced part that is not the named workload
VERIFY_CRITERIA = 10
EXPECTED_FAIL = 6  # criterion 6 is a documented FAIL and must stay one
RELATIVE_DEFECT_CRITERIA = (2, 3, 4, 5)  # their defects are relative errors against closed forms
P90_MIN_OPS = 100  # ten ops beyond the 90th percentile
REF_REPEATS = 5  # reference runs per reading after a set-up or beside a verify op; the median counts

NPROC = len(os.sched_getaffinity(0))  # before main() pins the run to one CPU
_children = []
checks = oracle = spec = None  # numpy and scipy modules, imported by load_oracle()


def load_oracle():
    """Import the oracle side only when a run needs it.

    Linux counts the parent's resident memory into a child's ru_maxrss
    across fork and exec, so verify_suite, which reads its children's peak
    that way, keeps numpy and scipy out of this process.
    """
    global checks, oracle, spec
    import checks
    import oracle
    import spec

    return oracle


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop_children(*_args) -> None:
    for proc in _children:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if _args:  # called as the deadline's signal handler
        print(f"error: run exceeded {DEADLINE_S} s", file=sys.stderr)
        os._exit(3)


def _spawn(args, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), **kwargs)
    _children.append(proc)
    return proc


def _reap(proc: subprocess.Popen):
    """Wait for a child; return (exit code, peak resident memory in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(proc)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Worker:
    """One worker.py process; the time from spawn to its ready message is its set-up time."""

    def __init__(self, workload: str, trace: bool):
        start = time.perf_counter()
        self.proc = _spawn(
            [sys.executable, str(BENCH / "worker.py"), workload, "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        _, self.import_s, self.setup_spans = self._recv()
        self.setup_s = time.perf_counter() - start

    def _recv(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError("worker exited unexpectedly; its traceback is on stderr") from None

    def send(self, *cmd) -> None:
        pickle.dump(cmd, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()

    def request(self, *cmd):
        self.send(*cmd)
        return self._recv()

    def close(self) -> None:
        pickle.dump(("exit",), self.proc.stdin)
        self.proc.stdin.close()
        code, _ = _reap(self.proc)
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")


def measure_setup(workload: str) -> tuple:
    """Set up SETUP_REPEATS fresh workers; keep the last one.

    Each set-up is bracketed by reference readings on the same CPU: the
    previous worker's just before the spawn and the fresh worker's right
    after it reports ready.  A first, uncounted worker gives the first
    reading.  Returns ([(set-up s, [reference s before, after])], worker).
    """
    setups = []
    prev = Worker(workload, False)
    for _ in range(SETUP_REPEATS):
        before = prev.request("ref", REF_REPEATS)[1]
        w = Worker(workload, False)
        setups.append((w.setup_s, [before, w.request("ref", REF_REPEATS)[1]]))
        prev.close()
        prev = w
    return setups, prev


class Tally:
    """Ops attempted and failed, op latencies, and whether every completed op was correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies = []
        self.refs = []  # reference times (reference.py) just before and after each op
        self.worst = {}  # output name -> worst error seen

    def failure(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"op failed: {why}", file=sys.stderr)

    def success(self, latency=None, ref=None, errors: dict | None = None, tolerance: float = 0.0) -> None:
        """Count a completed op; latency and ref are None for an untimed probe."""
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
            self.refs.append(ref)
        for name, err in (errors or {}).items():
            self.worst[name] = max(self.worst.get(name, 0.0), err)
            if not err <= tolerance:
                self.correct = False
                print(f"wrong output {name}: error {err:.3e} > {tolerance:.0e}", file=sys.stderr)


# verify_suite -------------------------------------------------------------


def verify_process(helper: Worker):
    """One fresh ``muhermite verify --json`` process.

    The helper worker times the reference work just before and just after
    it, on the same CPU, as the worker does around its own ops.  Returns
    (latency s, reference times, exit code, peak MB, parsed JSON or None).
    """
    before = helper.request("ref", REF_REPEATS)[1]
    start = time.perf_counter()
    proc = _spawn([sys.executable, "-m", "muhermite", "verify", "--json"], stdout=subprocess.PIPE)
    code, peak = _reap(proc)  # the report is a few kB: it fits the pipe, so the child never blocks on it
    latency = time.perf_counter() - start
    refs = [before, helper.request("ref", REF_REPEATS)[1]]
    text = proc.stdout.read()
    proc.stdout.close()
    try:
        results = json.loads(text)
    except ValueError:
        results = None
    return latency, refs, code, peak, results


def verify_verdict(code: int, results) -> str | None:
    """None when the suite ran as documented: all criteria but 6 pass, 6 fails, exit code 1."""
    if not isinstance(results, list) or [r.get("criterion") for r in results] != list(range(1, VERIFY_CRITERIA + 1)):
        return f"exit code {code}, unreadable or incomplete JSON"
    wrong = [r["criterion"] for r in results if r["pass"] == (r["criterion"] == EXPECTED_FAIL)]
    if wrong:
        return f"criteria {wrong} did not report their expected outcome"
    if code != 1:
        return f"exit code {code}, expected 1 for the criterion-6 FAIL alone"
    return None


def relative_defects(results) -> float:
    """Worst defect that criteria 2-5 report; each is a relative error against a closed form."""
    worst = 0.0
    for r in results:
        if r["criterion"] in RELATIVE_DEFECT_CRITERIA:
            found = re.findall(r"defect ([0-9.]+e[-+][0-9]+)", r["detail"])
            if not found:
                raise ValueError(f"criterion {r['criterion']} reports no defect: {r['detail']!r}")
            worst = max([worst] + [float(v) for v in found])
    return worst


def run_verify_suite(seconds: float) -> dict:
    setup, helper = measure_setup("verify_suite")
    tally = Tally()
    rss = []
    defect = 0.0
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            wall, ref, code, peak, results = verify_process(helper)
            why = verify_verdict(code, results)
            if why:
                tally.failure(why)
                continue
            defect = max(defect, relative_defects(results))
            tally.success(wall, ref)
            rss.append(peak)
    finally:
        helper.close()
    return {"tally": tally, "setup": setup, "rss_mb": statistics.median(rss) if rss else math.nan, "worst_error": defect}


# apply_warm and mu_sweep --------------------------------------------------


def _op(w: Worker, tally: Tally, arg, check, spans: list | None = None):
    reply = w.request("op", arg)
    if spans is not None:
        spans.append(reply[-1])
    if reply[0] == "error":
        tally.failure(reply[1])
        return
    tally.success(reply[1], reply[2], check(reply[3]), checks.TOLERANCE)


def apply_loop(w: Worker, seed: int, seconds: float, min_ops: int, spans=None) -> tuple:
    inputs = spec.apply_inputs(seed)
    expect = checks.ApplyExpect(inputs)
    w.request("inputs", "run", inputs)
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or tally.attempted < min_ops:
        _op(w, tally, "run", expect.errors, spans)
    check_set = checks.ApplyExpect(spec.apply_inputs(spec.CHECK_SEED))
    accuracy = Tally()
    _op(w, accuracy, "check", check_set.errors)
    return tally, accuracy


def sweep_loop(w: Worker, seed: int, seconds: float, min_ops: int, spans=None) -> tuple:
    stream = spec.sweep_mus(seed)
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or tally.attempted < min_ops:
        mu = next(stream)
        _op(w, tally, mu, lambda out, mu=mu: checks.sweep_errors(mu, out), spans)
    accuracy = Tally()
    for mu in spec.SWEEP_CHECK_MUS:
        _op(w, accuracy, mu, lambda out, mu=mu: checks.sweep_errors(mu, out))
    return tally, accuracy


LOOPS = {"apply_warm": apply_loop, "mu_sweep": sweep_loop}


def run_worker_workload(workload: str, seed: int, seconds: float) -> dict:
    setup, w = measure_setup(workload)
    try:
        tally, accuracy = LOOPS[workload](w, seed, seconds, 1)
        _, rss = w.request("rss")
    finally:
        w.close()
    if accuracy.failed:
        raise RuntimeError("an op of the fixed check set failed")
    tally.correct = tally.correct and accuracy.correct
    worst = max(accuracy.worst.values())
    return {"tally": tally, "setup": setup, "rss_mb": rss, "worst_error": worst, "check_set": accuracy.worst}


# traced run ----------------------------------------------------------------


def traced_verify(budget: float) -> dict:
    """Rounds of: import and exact probes in a fresh process, one full verify op, each criterion in its own process."""
    tally = Tally()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget:
        r = {}
        w = Worker("verify_suite", True)
        r["import_s"] = w.import_s
        _, exact = w.request("exact")
        if exact["failed"]:
            tally.failure(f"exact identities failed: {exact['failed']}")
        else:
            tally.success()
        r["exact"] = exact
        wall, ref, code, _, results = verify_process(w)
        w.close()
        why = verify_verdict(code, results)
        if why:
            tally.failure(why)
        else:
            tally.success(wall, ref)
            r["op_s"] = wall
            r["process_s"] = wall - sum(c["seconds"] for c in results)
        for k in range(1, VERIFY_CRITERIA + 1):
            w = Worker("verify_suite", True)
            _, seconds, passed = w.request("criterion", k)
            w.close()
            if passed != (k != EXPECTED_FAIL):
                tally.failure(f"criterion {k}: pass={passed}")
            else:
                tally.success()
                r[f"criterion_{k:02d}_s"] = seconds
        rounds.append(r)
    return {"tally": tally, "rounds": rounds}


def traced_worker(workload: str, seed: int, budget: float) -> dict:
    w = Worker(workload, True)
    spans = []
    try:
        tally, accuracy = LOOPS[workload](w, seed, budget, MIN_OPS[workload], spans)
    finally:
        w.close()
    tally.correct = tally.correct and accuracy.correct
    return {"tally": tally, "setup_spans": w.setup_spans, "spans": spans}


def _span_ms(spans: list, name: str) -> float:
    times = [1e3 * (end - begin) for op in spans for (n, begin, end) in op if n == name]
    return statistics.median(times)


def layer_metrics(parts: dict) -> dict:
    """Per-layer metrics; each comes from the part the README names as its source."""
    m = {}
    rounds = parts["verify_suite"]["rounds"]

    def med(key):
        return statistics.median(r[key] for r in rounds if key in r)

    m["cli.import_s"] = (med("import_s"), "s")
    m["cli.process_s"] = (med("process_s"), "s")
    for k in range(1, VERIFY_CRITERIA + 1):
        m[f"verify.criterion_{k:02d}_s"] = (med(f"criterion_{k:02d}_s"), "s")
    exact = rounds[0]["exact"]
    for tag in exact["times"]:
        m[f"exact.verify_identity.{tag}_ms"] = (1e3 * statistics.median(t for r in rounds for t in r["exact"]["times"][tag]), "ms")
    m["exact.degree_checks"] = (exact["checks"], "count")

    sweep = parts["mu_sweep"]["spans"]
    for name in ("quadrature.gauss_hermite_mu", "quadrature.gauss_alpha_mu", "quadrature.jacobi_rule",
                 "core.gamma_table", "transform.phi_poly_table", "heat.heat_spectral_matrix",
                 "oscillator.build", "oscillator.run_all"):
        m[f"{name}_ms"] = (_span_ms(sweep, name), "ms")
    m["quadrature.nodes_built"] = (spec.SWEEP_HERMITE_SIZE + spec.SWEEP_ALPHA_SIZE + spec.SWEEP_JACOBI_SIZE, "count")

    apply = parts["apply_warm"]["spans"]
    for name in ("transform.expand", "transform.synthesize", "transform.fourier_quadrature.series",
                 "transform.fourier_quadrature.averaging", "transform.fourier_quadrature.exp",
                 "efun.e_mu", "heat.heat_apply_kernel", "translate.translate_alpha", "translate.translate_xi"):
        m[f"{name}_ms"] = (_span_ms(apply, name), "ms")
    inputs = spec.apply_inputs(spec.CHECK_SEED)  # the shapes do not depend on the seed
    m["transform.kernel_entries"] = (
        sum(
            grid.size * spec.QUAD_N * (spec.AVERAGING_INNER_NODES if route == "averaging" else 1)
            for mu in spec.MU_SET
            for route, grid, *_ in spec.transform_calls(mu, inputs)
        ),
        "count",
    )
    m["efun.e_mu_points"] = (spec.Z_EFUN.size * len(spec.MU_SET), "count")
    return m


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    parts = {}
    for part in WORKLOADS:
        budget = seconds if part == workload else 0.0
        parts[part] = traced_verify(budget) if part == "verify_suite" else traced_worker(part, seed, budget)
    return parts


# reporting ---------------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "cpu": sorted(os.sched_getaffinity(0)),
        "threads": PINNED,
    }


def end_to_end(result: dict) -> dict:
    """The gated metrics.  Times are in reference units (reference.py), which host drift leaves alone.

    setup_s is set-up time over the mean reference time around it, times
    REF_NOMINAL_S: seconds on a host that runs the reference in 10 ms.
    """
    tally = result["tally"]
    norm = [lat / statistics.mean(ref) for lat, ref in zip(tally.latencies, tally.refs)]
    return {
        "setup_s": (REF_NOMINAL_S * statistics.median(s / statistics.mean(ref) for s, ref in result["setup"]), "s"),
        "ops_per_ref": (len(norm) / sum(norm), "1/ref"),
        "op_ref_p50": (statistics.median(norm), "ref"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
        "accuracy_digits": (-math.log10(max(result["worst_error"], 1e-17)), "digits"),
    }


def wall_metrics(tally: Tally) -> dict:
    """Op times in wall-clock units, printed and recorded but not gated: they move with the host."""
    lat = tally.latencies
    m = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "ref_ms_p50": (1e3 * statistics.median(r for pair in tally.refs for r in pair), "ms"),
    }
    if len(lat) >= P90_MIN_OPS:
        m["op_ms_p90"] = (1e3 * statistics.quantiles(lat, n=10)[-1], "ms")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "muhermite" / "__init__.py").is_file():
        print(f"error: no muhermite sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must be in (0, 60]", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _stop_children)
    signal.alarm(DEADLINE_S)
    # Everything, this process and every child, on one CPU: the reference
    # work then measures the core the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Byte-compile the program once, outside every timed section.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, env=child_env())
    if args.trace or args.workload != "verify_suite":
        bad = {k: v for k, v in load_oracle().self_check().items() if not v < oracle.SELF_CHECK_TOLERANCE}
        if bad:
            print(f"error: oracle self-check failed: {bad}", file=sys.stderr)
            return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            parts = run_traced(args.workload, args.seed, args.seconds)
            metrics = layer_metrics(parts)
            tallies = [p["tally"] for p in parts.values()]
            own = parts[args.workload]["tally"]
            record["traced"] = {name: value for name, (value, _) in wall_metrics(own).items()}
            record["traced"]["op_ref_p50"] = statistics.median(a / statistics.mean(b) for a, b in zip(own.latencies, own.refs))
            record["spans"] = {
                name: {"setup": p.get("setup_spans"), "ops": p.get("spans")} for name, p in parts.items() if "spans" in p
            }
            record["verify_rounds"] = parts["verify_suite"]["rounds"]
        else:
            result = run_verify_suite(args.seconds) if args.workload == "verify_suite" else run_worker_workload(
                args.workload, args.seed, args.seconds
            )
            metrics = end_to_end(result)
            tallies = [result["tally"]]
            wall = {"setup_wall_s": (statistics.median(s for s, _ in result["setup"]), "s")}
            wall |= wall_metrics(result["tally"])
            record["wall"] = {name: value for name, (value, _) in wall.items()}
            record["op_latencies_s"] = result["tally"].latencies  # in the order run
            record["ref_s"] = result["tally"].refs
            record["setup_s_and_ref_s"] = result["setup"]
            record["worst_error_by_output"] = result["tally"].worst
            record["check_set_errors"] = result.get("check_set", {})
    finally:
        _stop_children()
    out = {
        "correct": all(t.correct for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(out)
    record["environment"] = environment()  # after the run: numpy stays out of verify_suite's children
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    env = record["environment"]
    print(f"# python {env['python']}, numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, "
          f"run on cpu {env['cpu']}, one BLAS thread")
    print(f"# {args.workload}: {out['attempted']} ops attempted, {out['failed']} failed, correct={out['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for name, (value, unit) in ({} if args.trace else wall).items():
        print(f"{name:48s} {value:14.6g} {unit}  (wall clock, not gated)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
