"""Benchmark worker: runs one workload in this process and prints its result.

Start it through ``bench/run.py``, which pins the BLAS and OpenMP thread
counts before NumPy loads:

    python3 bench/run.py --workload closed_loop --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the worker sets the inputs up several times, then repeats
the workload's unit of work until ``--seconds`` have passed, timing one more
set-up after each repetition, and reports the median set-up and the median
repetition.  Every time it reports is scaled to the host's speed at that
moment, measured by a fixed probe that runs between repetitions (see
:func:`probe`).  With ``--trace 1`` it
alternates a fixed number of plain repetitions with traced ones, in which
every layer boundary is wrapped by :class:`tracer.Tracer`, checks that both
kinds produced identical outputs, and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qfcontrol  # noqa: E402
from qfcontrol import cli, control, core, measurement, simulate, synthesis  # noqa: E402
from qfcontrol.control import ControllerConfig  # noqa: E402
from qfcontrol.core import DiagonalObservable  # noqa: E402
from qfcontrol.measurement import photon_box  # noqa: E402
from qfcontrol.simulate import LoopConfig  # noqa: E402
from qfcontrol.synthesis import SynthesisProblem  # noqa: E402

from run import PINNED  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(qfcontrol.__file__).resolve().parent != ROOT / "src" / "qfcontrol":
    raise SystemExit(f"qfcontrol was imported from {qfcontrol.__file__}, not from {ROOT / 'src'}")

OUT = BENCH / "out"
FIRST_SETUPS = 5
# A nominal probe time, within the 25-35 ms the probe takes on the machine
# the benchmark was written on (Intel Xeon, 2 vCPUs, shared host).  Reported
# times are in seconds of a host on which the probe takes exactly this long.
PROBE_REF_S = 0.028
MAX_ITER = inspect.signature(synthesis.solve_synthesis).parameters["max_iter"].default

# Sizes of one repetition.  "smoke" only checks that the harness works.
# exact_min's 20-step budget is short of any hit, and closed_loop and
# open_loop turn the early stop off, so every realization does the same
# amount of work and run_s does not depend on the seed.
SCALES = {
    "full": {
        "closed_loop": {"realizations": 5, "steps": 1000},
        "exact_min": {"realizations": 2, "steps": 20},
        "open_loop": {"realizations": 40, "steps": 200},
        "synthesis": {"sizes": (8, 16, 32)},
        "min_reps": 3,
        "trace_pairs": 5,
    },
    "smoke": {
        "closed_loop": {"realizations": 2, "steps": 20},
        "exact_min": {"realizations": 1, "steps": 2},
        "open_loop": {"realizations": 2, "steps": 10},
        "synthesis": {"sizes": (4, 6)},
        "min_reps": 1,
        "trace_pairs": 1,
    },
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Every wrapped boundary: (owner, attribute, metric name, one span per call).
# Functions are wrapped where qfcontrol.simulate and qfcontrol.cli look them
# up, and where qfcontrol.control looks up the exact-min objective's parts,
# so the library's own call paths are measured unchanged.
BOUNDARIES = [
    (cli, "main", "cli.main", True),
    (cli.ExperimentConfig, "load", "cli.ExperimentConfig.load", True),
    (cli, "run_ensemble", "simulate.run_ensemble", True),
    (simulate, "run_ensemble", "simulate.run_ensemble", True),
    (simulate, "run_stochastic", "simulate.run_stochastic", True),
    (simulate, "run_open_loop", "simulate.run_open_loop", True),
    (cli, "write_trajectories_csv", "simulate.write_trajectories_csv", True),
    (simulate, "quadratic_feedback", "control.quadratic_feedback", False),
    (simulate, "exact_min_feedback", "control.exact_min_feedback", False),
    (control, "expected_v_after", "control.expected_v_after", False),
    (simulate, "lyapunov_v", "control.lyapunov_v", False),
    (control, "lyapunov_v", "control.lyapunov_v", False),
    (control, "lyapunov_v_eps", "control.lyapunov_v_eps", False),
    (measurement.QndMeasurement, "sample_outcome", "measurement.sample_outcome", False),
    (measurement.QndMeasurement, "apply_outcome", "measurement.apply_outcome", False),
    (measurement.QndMeasurement, "expected_update", "measurement.expected_update", False),
    (core.HermitianPropagator, "__init__", "core.HermitianPropagator.__init__", False),
    (core.HermitianPropagator, "conjugate", "core.HermitianPropagator.conjugate", False),
    (simulate, "purity", "core.purity", False),
    (simulate, "fidelity_to_basis", "core.fidelity_to_basis", False),
    (simulate, "density_violations", "core.density_violations", False),
    (synthesis, "solve_synthesis", "synthesis.solve_synthesis", True),
]
FUNCTIONS = list(dict.fromkeys(name for _, _, name, _ in BOUNDARIES))
# Boundaries whose own code is glue around other boundaries: the per-step
# loop, the ensemble reduction and the command's bookkeeping.  Their self
# time, and any unwrapped function they call, is what coverage leaves out.
CONTAINERS = ("cli.main", "simulate.run_ensemble", "simulate.run_stochastic",
              "simulate.run_open_loop")
LAYERS = ("cli", "simulate", "control", "measurement", "core", "synthesis")


_PROBE_U = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8))
                        + 1j * np.random.default_rng(1).standard_normal((8, 8)))[0]
_PROBE_W = np.linspace(0.1, 1.0, 8)


def probe(steps=1200):
    """Time a fixed piece of work shaped like the step kernel.

    Each step builds a unitary from phases, conjugates an 8 x 8 density
    matrix with it, draws a random number and takes a purity and an
    expectation: the small NumPy calls in a Python loop that the workloads
    spend their time on.  It calls no qfcontrol code, so a change to the
    program does not move it.  The shared host this benchmark runs on can
    slow all code by up to two times for minutes at a time; dividing a
    repetition's time by the probe's, taken right before and after it,
    removes most of that.
    """
    perf = time.perf_counter
    t0 = perf()
    rng = np.random.default_rng(5)
    rho = np.eye(8, dtype=complex) / 8.0
    acc = 0.0
    for i in range(steps):
        v = _PROBE_U * np.exp(-1j * _PROBE_W * (i % 5))
        rho = v @ rho @ v.conj().T
        diag = rho.diagonal().real
        k = int(rng.random() * 8)
        acc += float(diag[k]) + float(np.real(np.trace(rho @ rho))) + float(np.dot(_PROBE_W, diag))
    return perf() - t0


def reference_rho0():
    """The criterion-7 initial state: uniform coherences plus weight on |0>."""
    rho = np.ones((8, 8), dtype=complex) / 16.0
    rho[0, 0] += 0.5
    return rho


def reference_observable():
    return DiagonalObservable(cli.REFERENCE_SIGMA, cli.REFERENCE_N_STAR)


def dense_h1(p):
    result = synthesis.solve_synthesis(SynthesisProblem(sigma=p))
    return synthesis.hamiltonian_of_r(result.r, "positive")


def master_seed(seed):
    """Ensemble master seed of a workload seed.

    Realization i draws from splitmix64(master XOR i), so masters that differ
    only in bits 16 and above give every seed its own realizations.
    """
    return (int(seed) & 0xFFFFFFFFFFFF) << 16


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@dataclasses.dataclass
class RepResult:
    """Checked outputs of one repetition (or of synthesis' random set)."""

    ops: int                    # realizations or solves attempted
    failed: int = 0             # of those, aborted or failing a check
    steps: int = 0              # realization-steps
    csv_bytes: int = 0
    iterations: dict = dataclasses.field(default_factory=lambda: {"dense": 0, "sparse": 0})
    max_iter_hits: int = 0
    infeasible: int = 0         # solves that came back feasible=False
    fingerprint: str = ""       # hash of every output, for traced vs untraced
    digest: str = ""            # hash compared with digests.json on the default seed
    problems: list = dataclasses.field(default_factory=list)


def check_ensemble(ens, n, result):
    """Counting identity and density invariants of the final states."""
    if ens is None:
        result.failed = n
        result.problems.append(f"ensemble of {n} realizations aborted")
        return
    if int(ens.hit_histogram.sum()) + ens.unabsorbed != n or ens.realizations != n:
        result.failed = n
        result.problems.append("hit_histogram.sum() + unabsorbed != realizations")
    bad = 0
    finals = []
    for t in ens.trajectories:
        final = t.states[max(t.states)]
        finals.append(final)
        if core.density_violations(final):
            bad += 1
    if bad:
        result.failed = max(result.failed, bad)
        result.problems.append(f"{bad} final states violate the density invariants")
    result.steps = sum(t.steps_run for t in ens.trajectories)
    first_hit = np.asarray(ens.first_hit, dtype=np.int64)
    absorbed = np.asarray(ens.absorbed_state, dtype=np.int64)
    result.digest = sha(first_hit, absorbed)
    result.fingerprint = sha(first_hit, absorbed, ens.final_fidelity,
                             ens.hit_histogram, *finals)


class ClosedLoop:
    """The published instance through ``qfcontrol simulate``, in-process."""

    def __init__(self, seed, params, work):
        self.seed = seed
        self.n = params["realizations"]
        self.steps = params["steps"]
        self.dir = work / "closed_loop"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "experiment.json"
        self.out = self.dir / "out"
        # The command writes its results to files; keep the ensemble too, so
        # that the final states can be checked.
        self.ensembles = []
        run_ensemble = cli.run_ensemble

        def keep(*args, **kwargs):
            ens = run_ensemble(*args, **kwargs)
            self.ensembles.append(ens)
            return ens

        cli.run_ensemble = keep

    def setup(self):
        p = reference_observable()
        h1 = dense_h1(p)
        meas = photon_box(p.dim, cli.REFERENCE_PHI0, cli.REFERENCE_THETA)
        controller = ControllerConfig(kind="quadratic", u_bar=0.1)
        core.save_matrix(self.dir / "h1.json", h1, phase_policy="positive")
        raw = {
            "p": p.to_json(),
            "h1": "h1.json",
            "measurement": {"photon_box": {"n": p.dim, "phi0": cli.REFERENCE_PHI0,
                                           "theta": cli.REFERENCE_THETA}},
            "controller": controller.to_json(),
            "rho0": core.matrix_to_json(reference_rho0()),
            "loop": {"mode": "stochastic", "steps": self.steps, "stop_at_threshold": False},
            "ensemble": {"realizations": self.n, "master_seed": master_seed(self.seed)},
        }
        with open(self.config, "w") as f:
            json.dump(raw, f)
        self.warm_cfg = LoopConfig(mode="stochastic", p=p, h1=h1, meas=meas,
                                   controller=controller, steps=self.steps,
                                   stop_at_threshold=False)

    def warm_up(self):
        simulate.run_ensemble(self.warm_cfg, reference_rho0(), 1, master_seed(self.seed))

    def pre(self):
        return None

    def rep(self):
        argv = ["simulate", "--config", str(self.config), "--out-dir", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(argv)
        return code, (self.ensembles.pop() if self.ensembles else None), printed.getvalue()

    def check(self, rep_out):
        code, ens, printed = rep_out
        result = RepResult(ops=self.n)
        check_ensemble(ens, self.n, result)
        if code != 0:
            result.failed = self.n
            result.problems.append(f"qfcontrol simulate exited with {code}: {printed.strip()}")
            return result
        with open(self.out / "summary.json") as f:
            summary = json.load(f)
        if (sum(summary["hit_histogram"]) + summary["unabsorbed"] != self.n
                or summary["first_hit"] != ens.first_hit.tolist()):
            result.failed = self.n
            result.problems.append("summary.json disagrees with the ensemble")
        csv = (self.out / "trajectories.csv").read_bytes()
        lines = csv.count(b"\n")
        rows = sum(t.fidelity.size for t in ens.trajectories)
        if lines != rows + 2:
            result.failed = self.n
            result.problems.append(f"trajectories.csv has {lines} lines, expected {rows + 2}")
        result.csv_bytes = len(csv)
        result.fingerprint = sha(result.fingerprint.encode(), csv)
        return result


class Ensemble:
    """``simulate.run_ensemble`` on the LoopConfig that ``setup`` builds."""

    def __init__(self, seed, params, work):
        self.seed = seed
        self.n = params["realizations"]
        self.steps = params["steps"]

    def warm_up(self):
        cfg = dataclasses.replace(self.cfg, steps=min(self.steps, 5))
        simulate.run_ensemble(cfg, reference_rho0(), 1, master_seed(self.seed))

    def pre(self):
        return None

    def rep(self):
        try:
            return simulate.run_ensemble(self.cfg, reference_rho0(), self.n, master_seed(self.seed))
        except (RuntimeError, ValueError):
            return None

    def check(self, ens):
        result = RepResult(ops=self.n)
        check_ensemble(ens, self.n, result)
        return result


class ExactMin(Ensemble):
    """The reference instance at theta = pi/10 under the exact-min controller."""

    def setup(self):
        p = reference_observable()
        self.cfg = LoopConfig(
            mode="stochastic", p=p, h1=dense_h1(p),
            meas=photon_box(p.dim, cli.REFERENCE_PHI0, np.pi / 10.0),
            controller=ControllerConfig(kind="exact-min", u_bar=0.1),
            steps=self.steps,
        )


class OpenLoop(Ensemble):
    """Criterion 6: measurement alone at theta = pi/10, H1 = 0, no control."""

    def setup(self):
        p = reference_observable()
        self.cfg = LoopConfig(
            mode="open-loop", p=p, h1=np.zeros((p.dim, p.dim)),
            meas=photon_box(p.dim, cli.REFERENCE_PHI0, np.pi / 10.0),
            steps=self.steps, stop_at_threshold=False,
        )


class Synthesis:
    """Reference sigma, dense and sparse, plus seeded random sigma.

    The random instances are drawn from the seed alone and never filtered:
    the sparse path fails the sign condition on many of them, and that count
    is part of the result.  Their solve times vary several-fold between
    seeds, so they are solved once per pass and traced, while run_s repeats
    the fixed reference pair.
    """

    def __init__(self, seed, params, work):
        self.seed = seed
        self.sizes = params["sizes"]

    def setup(self):
        p = reference_observable()
        self.reference = [SynthesisProblem(sigma=p, alpha2=0.0),
                          SynthesisProblem(sigma=p, alpha2=1.0)]
        rng = np.random.default_rng(self.seed)
        self.random = []
        for n in self.sizes:
            sigma = rng.uniform(0.0, 100.0, n)
            p = DiagonalObservable(sigma, int(np.argmin(sigma)))
            self.random += [SynthesisProblem(sigma=p, alpha2=0.0),
                            SynthesisProblem(sigma=p, alpha2=1.0)]

    def warm_up(self):
        synthesis.solve_synthesis(self.reference[0])

    @staticmethod
    def _solve(problems):
        out = []
        for problem in problems:
            try:
                out.append((problem, synthesis.solve_synthesis(problem)))
            except (RuntimeError, ValueError) as e:
                out.append((problem, e))
        return out

    def pre(self):
        return self._solve(self.random)

    def rep(self):
        return self._solve(self.reference)

    def check(self, solved):
        result = RepResult(ops=len(solved))
        parts = []
        for problem, res in solved:
            if isinstance(res, Exception):
                result.failed += 1
                result.problems.append(f"solve raised {res!r}")
                continue
            kind = "sparse" if problem.alpha2 > 0 else "dense"
            result.iterations[kind] += res.iterations
            result.max_iter_hits += res.iterations >= MAX_ITER
            parts += [res.r, res.lambda_tilde, np.array([res.iterations, res.feasible])]
            if not res.feasible:
                result.infeasible += 1
                continue
            sign_ok, _ = synthesis.verify_lambda(res.lambda_tilde, problem.sigma.n_star)
            if not (sign_ok and synthesis.in_cone(res.r)):
                result.failed += 1
                result.problems.append(
                    f"feasible {kind} solve at n={problem.sigma.dim} fails verify_lambda or in_cone")
        result.fingerprint = sha(*parts)
        result.digest = sha(*[np.array([r.iterations, r.feasible]) for _, r in solved
                              if not isinstance(r, Exception)])
        return result


WORKLOADS = {
    "closed_loop": ClosedLoop,
    "exact_min": ExactMin,
    "open_loop": OpenLoop,
    "synthesis": Synthesis,
}


@dataclasses.dataclass
class Pass:
    """Checked results and times of one pass.

    Outputs are checked as soon as they are made, outside the timed region,
    and then dropped, so memory holds one repetition's outputs at a time.
    """

    pre: RepResult | None = None
    pre_time: float = 0.0
    reps: list = dataclasses.field(default_factory=list)
    times: list = dataclasses.field(default_factory=list)
    probes: list = dataclasses.field(default_factory=list)  # before each rep, and after the last
    setup_times: list = dataclasses.field(default_factory=list)
    setup_probes: list = dataclasses.field(default_factory=list)

    def run_pre(self, workload, tracer=None):
        with tracing(tracer):
            t0 = time.perf_counter()
            out = workload.pre()
            self.pre_time = time.perf_counter() - t0
        if out is not None:
            self.pre = workload.check(out)

    def run_rep(self, workload, tracer=None):
        with tracing(tracer):
            t0 = time.perf_counter()
            out = workload.rep()
            self.times.append(time.perf_counter() - t0)
        result = workload.check(out)
        if self.reps and result.fingerprint != self.reps[0].fingerprint:
            result.problems.append("repetitions of the same inputs gave different outputs")
        self.reps.append(result)

    @property
    def wall(self):
        return self.pre_time + sum(self.times)

    def scaled_times(self):
        """Repetition times in seconds of a host at the probe's reference speed."""
        return [PROBE_REF_S * t / ((a + b) / 2.0)
                for t, a, b in zip(self.times, self.probes, self.probes[1:])]

    def scaled_setup_times(self):
        return [PROBE_REF_S * t / c for t, c in zip(self.setup_times, self.setup_probes)]

    def time_setups(self, workload, count):
        """Time ``count`` set-ups after one probe of the host's speed."""
        c = probe()
        for t in time_setup(workload, count):
            self.setup_times.append(t)
            self.setup_probes.append(c)

    def results(self):
        return ([self.pre] if self.pre else []) + self.reps


@contextlib.contextmanager
def tracing(tracer):
    """Wrap every boundary in BOUNDARIES for the duration, if tracer is set."""
    if tracer is None:
        yield
        return
    for owner, attribute, name, span in BOUNDARIES:
        tracer.patch(owner, attribute, name, span)
    try:
        yield
    finally:
        tracer.uninstall()


def run_timed(workload, seconds, min_reps):
    """Set up, then repeat the unit of work until ``seconds`` have passed.

    The inputs are set up FIRST_SETUPS times before the warm-up and once
    after every repetition, so that the set-up times sample the machine
    over the whole run, as the repetitions do.  The probe runs before the
    first repetition and after every one.
    """
    start = time.perf_counter()
    p = Pass()
    probe()
    p.time_setups(workload, FIRST_SETUPS)
    workload.warm_up()
    p.run_pre(workload)
    p.probes.append(probe())
    while len(p.reps) < min_reps or time.perf_counter() - start < seconds:
        p.run_rep(workload)
        p.probes.append(probe())
        p.setup_times += time_setup(workload, 1)
        p.setup_probes.append(p.probes[-1])
    return p


def run_paired(workload, pairs, tracer):
    """Alternate plain and traced repetitions, so both see the same machine."""
    plain, traced = Pass(), Pass()
    plain.run_pre(workload)
    traced.run_pre(workload, tracer)
    for _ in range(pairs):
        plain.run_rep(workload)
        traced.run_rep(workload, tracer)
    return plain, traced


def time_setup(workload, count):
    """Times of ``count`` set-ups of the workload's inputs."""
    perf = time.perf_counter
    times = []
    for _ in range(count):
        t0 = perf()
        workload.setup()
        times.append(perf() - t0)
    return times


def end_to_end(p, workload_name):
    """Median repetition and median set-up, scaled by the probe.

    Every repetition does the same work.  On synthesis, which has no
    realization-steps, steps_per_s counts solves; on the simulation
    workloads solves_per_s counts realizations.
    """
    rep = p.reps[0]
    steps = rep.ops if workload_name == "synthesis" else rep.steps
    run_s = statistics.median(p.scaled_times())
    values = {
        "run_s": run_s,
        "setup_s": statistics.median(p.scaled_setup_times()),
        "steps_per_s": steps / run_s,
        "solves_per_s": rep.ops / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, plain, traced):
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in FUNCTIONS:
        calls, total, self_s = tracer.records.get(name, (0, 0.0, 0.0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.total_s", total, "s")
        put(f"{name}.self_s", self_s, "s")
        put(f"{name}.us_per_call", total / calls * 1e6 if calls else 0.0, "us")
        layer_self[name.split(".")[0]] += self_s
    for layer, value in layer_self.items():
        put(f"layer.{layer}.self_s", value, "s")

    results = traced.results()
    solves = tracer.records["synthesis.solve_synthesis"][0]
    decisions = tracer.records["control.exact_min_feedback"][0]
    put("simulate.steps", sum(r.steps for r in results), "count")
    put("simulate.csv_bytes", sum(r.csv_bytes for r in results), "B")
    put("control.expected_v_after.calls_per_decision",
        tracer.records["control.expected_v_after"][0] / decisions if decisions else 0.0, "count")
    put("synthesis.iterations.dense", sum(r.iterations["dense"] for r in results), "count")
    put("synthesis.iterations.sparse", sum(r.iterations["sparse"] for r in results), "count")
    put("synthesis.max_iter_hits", sum(r.max_iter_hits for r in results), "count")
    put("synthesis.infeasible_frac",
        sum(r.infeasible for r in results) / solves if solves else 0.0, "frac")
    put("trace.overhead_frac", statistics.median(
        t / p for t, p in zip(traced.times, plain.times)) - 1.0, "frac")
    leaves = [name for name in FUNCTIONS if name not in CONTAINERS]
    put("trace.coverage_frac", tracer.self_total(leaves) / traced.wall, "frac")
    put("trace.missing_boundaries", len(tracer.missing), "count")
    return out


def machine_info():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k) for k in PINNED},
    }


def load_digests():
    with open(BENCH / "digests.json") as f:
        return json.load(f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    scale = SCALES[args.scale]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, scale[args.workload], work)

    problems = []
    spans = missing = None
    if args.trace:
        setups = time_setup(workload, 1)
        workload.warm_up()
        tracer = Tracer()
        plain, traced = run_paired(workload, scale["trace_pairs"], tracer)
        passes = [plain, traced]
        if [r.fingerprint for r in plain.results()] != [r.fingerprint for r in traced.results()]:
            problems.append("traced outputs differ from untraced outputs")
        metrics = per_layer(tracer, plain, traced)
        spans, missing = tracer.spans, tracer.missing
        for label in missing:
            print(f"warning: boundary {label} does not exist and was not traced", file=sys.stderr)
    else:
        plain = run_timed(workload, args.seconds, scale["min_reps"])
        passes = [plain]
        setups = plain.setup_times
        metrics = end_to_end(plain, args.workload)

    results = [r for p in passes for r in p.results()]
    for r in results:
        problems += r.problems
    digests = load_digests()
    if args.scale == "full" and args.seed == digests["seed"]:
        expected = digests[args.workload]
        first = (plain.pre or plain.reps[0]).digest
        if first != expected:
            problems.append(f"default-seed digest {first} != stored {expected}")

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    info = machine_info()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "machine": info, "setup_times_s": setups, "rep_times_s": [p.times for p in passes],
        "probe_ref_s": PROBE_REF_S, "probe_times_s": plain.probes,
        "setup_probe_times_s": plain.setup_probes,
        "ops_per_rep": plain.reps[0].ops, "steps_per_rep": plain.reps[0].steps,
        "digest": (plain.pre or plain.reps[0]).digest, "problems": problems,
        "metrics": metrics, "missing_boundaries": missing,
        "spans": spans,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump(record, f, indent=1)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"machine": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
