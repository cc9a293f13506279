"""The process that does a workload's work: muhermite and numpy, nothing else.

Started by run.py as ``python3 perfbench/worker.py <workload> <trace>``
with the checkout's ``src`` on PYTHONPATH.  It imports the program,
builds the workload's warm state, reports ready, then answers commands
read from stdin; requests and replies are pickle frames written by
run.py and by this file only.  The oracle and scipy stay in run.py, so
the peak resident memory this process reports is the program's.

Commands:
  ("inputs", name, dict)  keep an apply_warm input set under a name
  ("op", arg)             run one op (apply_warm: input set name, mu_sweep: mu),
                          timing the reference work just before and after it
  ("exact",)              time every exact identity as criterion 1 runs it
  ("criterion", k)        time acceptance criterion k
  ("ref", repeats)        median time of the reference work (reference.py) over repeats
  ("rss",)                peak resident memory of this process in MB
  ("exit",)
"""

from __future__ import annotations

import pickle
import resource
import sys
import time
import traceback

_T0 = time.perf_counter()
CHANNEL_IN = sys.stdin.buffer
CHANNEL_OUT = sys.stdout.buffer
sys.stdout = sys.stderr  # a stray print must not corrupt the reply channel

import muhermite as mh  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402
from muhermite.core import gamma_table  # noqa: E402

import reference  # noqa: E402
import spec  # noqa: E402


class Tracer:
    """Records one span (name, start, end) per call when on; a plain call when off."""

    def __init__(self, on: bool):
        self.on = on
        self.spans = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((name, start, time.perf_counter()))
        return out

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _max_abs_xt(mu: float, grid, sigma: float) -> float:
    return float(np.max(np.abs(grid)) * np.max(np.abs(mh.gauss_hermite_mu(mu, spec.QUAD_N).nodes)) / np.sqrt(sigma))


class ApplyWarm:
    """Rules and tables for a fixed set of mu built once; each op applies the same bundle."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.inputs = {}
        for mu in spec.MU_SET:
            tr.call("quadrature.gauss_hermite_mu", mh.gauss_hermite_mu, mu, spec.QUAD_N)
            tr.call("core.gamma_table", gamma_table, mu, spec.SWEEP_GAMMA_SIZE)
            if mu > 0.0:
                # The transform's averaging route, translate_alpha and translate_xi.
                tr.call("quadrature.gauss_alpha_mu", mh.gauss_alpha_mu, mu, spec.AVERAGING_INNER_NODES)
                tr.call("quadrature.gauss_alpha_mu", mh.gauss_alpha_mu, mu, spec.SWEEP_JACOBI_SIZE)
                tr.call("quadrature.jacobi_rule", mh.jacobi_rule, mu - 1.0, mu, spec.SWEEP_JACOBI_SIZE)
        self.set_inputs("check", spec.apply_inputs(spec.CHECK_SEED))
        self.op("check")

    def set_inputs(self, name: str, inputs: dict) -> None:
        for mu in spec.MU_SET:
            for route, grid, _, _, sigma in spec.transform_calls(mu, inputs):
                big = _max_abs_xt(mu, grid, sigma)
                if route != "exp" and (route == "averaging") != (big > spec.ROUTE_LIMIT):
                    raise ValueError(f"input geometry max|xt|={big:.1f} does not select the {route} route at mu={mu}")
        self.inputs[name] = inputs

    def op(self, name: str) -> dict:
        inputs = self.inputs[name]
        call = self.tr.call
        out = {}
        for mu in spec.MU_SET:
            for route, grid, j, f, sigma in spec.transform_calls(mu, inputs):
                out[("fourier", mu, route, j)] = call(
                    f"transform.fourier_quadrature.{route}", mh.fourier_quadrature, mu, f, grid, sigma=sigma
                )
            out[("heat", mu)] = call(
                "heat.heat_apply_kernel", mh.heat_apply_kernel, mu, spec.gauss(inputs["alpha"]), spec.HEAT_T, spec.X_LINE
            )
            vec = call("transform.expand", mh.expand, mu, spec.poly_gauss(inputs["polys"][0]), spec.EXPAND_N, sigma=0.5)
            out[("expand", mu)] = np.asarray(vec.coeffs)
            out[("synthesize", mu)] = call("transform.synthesize", mh.synthesize, vec, spec.X_LINE)
            if mu > 0.0:
                phi = spec.gauss(inputs["tlam"])
                out[("translate_alpha", mu)] = np.array(
                    [call("translate.translate_alpha", mh.translate_alpha, mu, phi, x, y) for x, y in spec.PAIRS]
                )
                out[("translate_xi", mu)] = np.array(
                    [call("translate.translate_xi", mh.translate_xi, mu, phi, x, y) for x, y in spec.PAIRS]
                )
            out[("e_mu", mu)] = call("efun.e_mu", mh.e_mu, mu, spec.Z_EFUN)
        return out


class MuSweep:
    """Every mu-dependent build for a mu the process has not seen."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.op(spec.SWEEP_WARMUP_MU)

    def op(self, mu: float) -> dict:
        call = self.tr.call
        out = {}
        rule = call("quadrature.gauss_hermite_mu", mh.gauss_hermite_mu, mu, spec.SWEEP_HERMITE_SIZE)
        out["hermite"] = (np.array(rule.nodes), np.array(rule.weights))
        rule = call("quadrature.gauss_alpha_mu", mh.gauss_alpha_mu, mu, spec.SWEEP_ALPHA_SIZE)
        out["alpha"] = (np.array(rule.nodes), np.array(rule.weights))
        rule = call("quadrature.jacobi_rule", mh.jacobi_rule, mu - 1.0, mu, spec.SWEEP_JACOBI_SIZE)
        out["jacobi"] = (np.array(rule.nodes), np.array(rule.weights))
        table = call("core.gamma_table", gamma_table, mu, spec.SWEEP_GAMMA_SIZE)
        out["log_gamma"] = np.array(table.log_values[: spec.SWEEP_GAMMA_SIZE + 1])
        x = spec.X_LINE
        out["phi_table"] = call("transform.phi_poly_table", mh.phi_poly_table, mu, spec.SWEEP_TABLE_N, x) * np.exp(-0.5 * x * x)
        vec = call(
            "transform.expand", mh.expand, mu, spec.gauss(spec.SWEEP_ALPHA), spec.SWEEP_EXPAND_N,
            sigma=spec.SWEEP_ALPHA, quad_n=spec.SWEEP_HERMITE_SIZE,
        )
        out["synthesize"] = call("transform.synthesize", mh.synthesize, vec, x)
        out["fourier"] = call(
            "transform.fourier_quadrature.series", mh.fourier_quadrature, mu, spec.gauss(spec.SWEEP_LAM),
            spec.X_SWEEP, sigma=spec.SWEEP_LAM, quad_n=spec.SWEEP_HERMITE_SIZE,
        )
        flow = call("heat.heat_spectral_matrix", mh.heat_spectral_matrix, mu, spec.SWEEP_T, spec.SWEEP_EXPAND_N + 1)
        flowed = mh.SpectralVector(mu, flow @ np.asarray(vec.coeffs))
        out["heat"] = call("transform.synthesize", mh.synthesize, flowed, x)
        rep = call("oscillator.build", mh.build, mu, spec.SWEEP_OSC_SIZE)
        reports = call("oscillator.run_all", mh.run_all, rep)
        out["position"] = np.array(rep.q)
        out["checks_failed"] = [r.name for r in reports if not r.passed]
        return out


def exact_probe() -> dict:
    """Each exact identity timed as criterion 1 runs it: every tag at every mu, in order."""
    from muhermite.exact import IDENTITY_TAGS, verify_identity
    from muhermite.verify import EXACT_MUS, SERIES_TAGS

    times = {tag: [] for tag in IDENTITY_TAGS}
    checks = 0
    failed = []
    for tag in IDENTITY_TAGS:
        n_max = 12 if tag in SERIES_TAGS else 20
        for mu in EXACT_MUS:
            start = time.perf_counter()
            report = verify_identity(tag, mu, n_max)
            times[tag].append(time.perf_counter() - start)
            checks += report.checks
            if not report.passed:
                failed.append(f"{tag}@{mu}")
    return {"times": times, "checks": checks, "failed": failed}


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    ru_maxrss would also count the launcher's memory, which Linux carries
    into a child across fork and exec; VmHWM belongs to this image alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _send(obj) -> None:
    pickle.dump(obj, CHANNEL_OUT, protocol=pickle.HIGHEST_PROTOCOL)
    CHANNEL_OUT.flush()


def main() -> int:
    workload, trace = sys.argv[1], sys.argv[2] == "1"
    tr = Tracer(trace)
    state = {"apply_warm": ApplyWarm, "mu_sweep": MuSweep}.get(workload, lambda tr: None)(tr)
    _send(("ready", IMPORT_S, tr.take()))
    while True:
        cmd = pickle.load(CHANNEL_IN)
        if cmd[0] == "exit":
            return 0
        if cmd[0] == "inputs":
            state.set_inputs(cmd[1], cmd[2])
            _send(("ok",))
        elif cmd[0] == "op":
            before = reference.seconds()
            start = time.perf_counter()
            try:
                out = state.op(cmd[1])
            except Exception:  # reported to run.py, which counts the op as failed
                _send(("error", traceback.format_exc(), tr.take()))
                continue
            latency = time.perf_counter() - start
            _send(("done", latency, [before, reference.seconds()], out, tr.take()))
        elif cmd[0] == "exact":
            _send(("exact", exact_probe()))
        elif cmd[0] == "criterion":
            from muhermite.verify import run_criterion

            start = time.perf_counter()
            result = run_criterion(cmd[1])
            _send(("criterion", time.perf_counter() - start, result.passed))
        elif cmd[0] == "ref":
            _send(("ref", reference.seconds(cmd[1])))
        elif cmd[0] == "rss":
            _send(("rss", peak_rss_mb()))
        else:
            raise ValueError(f"unknown command {cmd[0]!r}")


if __name__ == "__main__":
    raise SystemExit(main())
