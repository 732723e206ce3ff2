"""One batched step kernel behind four entry points, plus the ensemble runner.

One step of the measurement-driven loop is: sample an outcome from the
current state, collapse, compute the control from the post-measurement state,
then apply exp(-i H1 u).  The deterministic (measurement-free) loop instead
applies exp(-i H0) exp(-i H1 u) with the linear feedback law.  One kernel,
``_run``, executes the step in all four modes for a stack of R realizations
at once: an (R, n, n) state, (R, steps + 1) logs and one random stream per
realization.  ``run_ensemble`` runs every realization through it together;
``run_stochastic``, ``run_open_loop``, ``run_deterministic`` and
``run_filtered`` check the mode, seed the stream and run one (R = 1).

Every realization owns an independent random stream derived from the master
seed with splitmix64, and the kernel gives each row the same bits whatever
the stack's size, so a realization's trajectory is the same run alone or in
an ensemble of any size.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    PSD_TOL,
    TRACE_TOL,
    HermitianPropagator,
    density_violations,
    hermitize,
    is_hermitian,
)
from .control import (
    ControllerConfig,
    ExactMinLaw,
    LinearLaw,
    QuadraticLaw,
)
from .measurement import P_FLOOR

# Per-state functions that the benchmark's tracer wraps where this module
# binds them.  The batched kernel no longer calls them, so their traced
# counts read 0; the names stay bound until the benchmark traces the kernel.
from .control import exact_min_feedback, lyapunov_v, quadratic_feedback  # noqa: F401
from .core import fidelity_to_basis, purity  # noqa: F401

__all__ = [
    "ABSORB_THRESHOLD",
    "ENSEMBLE_MODES",
    "EnsembleResult",
    "FilterBreakdown",
    "LoopConfig",
    "Trajectory",
    "config_hash",
    "convergence_statistics",
    "derive_seed",
    "run_deterministic",
    "run_ensemble",
    "run_filtered",
    "run_open_loop",
    "run_stochastic",
    "splitmix64",
    "write_trajectories_csv",
]

# A run counts as absorbed in a basis state once its population reaches this.
ABSORB_THRESHOLD = 0.999

REVALIDATE_EVERY = 50

# Uniforms drawn per refill of a realization's buffer: 2 KB per live
# realization, refilled about once per 256 steps.
DRAW_BLOCK = 256

# The modes run_ensemble accepts.  A deterministic run has no stream to vary,
# and a filtered ensemble would need an initial estimate no caller supplies.
ENSEMBLE_MODES = ("stochastic", "open-loop")


class FilterBreakdown(RuntimeError):
    """The filter assigned (near-)zero probability to the observed outcome."""


def _fmix64(x):
    """The splitmix64 finalizer: a bijection of 64-bit words with fmix64(0) = 0."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def splitmix64(x):
    """The splitmix64 mixing function; the seed-derivation contract."""
    return _fmix64((x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)


def derive_seed(master_seed, index):
    """Per-realization stream seed: splitmix64(fmix64(master_seed) XOR index).

    Mixing the master before the XOR keeps masters that differ only in low
    bits from sharing a set of streams; master 0 keeps splitmix64(index).
    """
    master = _fmix64(int(master_seed) & 0xFFFFFFFFFFFFFFFF)
    return splitmix64(master ^ (int(index) & 0xFFFFFFFFFFFFFFFF))


@dataclass(frozen=True)
class LoopConfig:
    """Everything a trajectory engine needs except the initial state."""

    mode: str
    p: object                      # DiagonalObservable
    h1: np.ndarray
    h0: np.ndarray | None = None
    meas: object | None = None     # QndMeasurement
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    steps: int = 1000
    fidelity_threshold: float = 0.99
    stop_at_threshold: bool = True

    def __post_init__(self):
        if self.mode not in ("deterministic", "stochastic", "open-loop", "filtered"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.mode == "deterministic" and self.h0 is None:
            raise ValueError("deterministic mode needs a drift Hamiltonian (may be zero)")
        if self.mode != "deterministic" and self.meas is None:
            raise ValueError(f"{self.mode} mode needs a measurement")
        if self.mode != "deterministic" and self.controller.kind == "linear":
            raise ValueError(f"{self.mode} mode cannot use the linear controller")
        if not 0.0 < self.fidelity_threshold <= 1.0:
            raise ValueError(f"fidelity_threshold is {self.fidelity_threshold}, "
                             "but must be in (0, 1]")
        dim = self.p.dim
        for name, h in (("h1", self.h1), ("h0", self.h0)):
            if h is not None and np.shape(h) != (dim, dim):
                raise ValueError(f"{name} has shape {np.shape(h)}, but p has dimension {dim}")
            if h is not None and not is_hermitian(h):
                raise ValueError(f"{name} is not a finite Hermitian matrix")
        if self.meas is not None and self.meas.dim != dim:
            raise ValueError(f"the measurement has dimension {self.meas.dim}, "
                             f"but p has dimension {dim}")


@dataclass
class Trajectory:
    """Per-step log of one realization.

    fidelity/lyapunov/purity have one entry per visited state (steps+1 at
    most); u and outcome have one entry per executed step.  states maps the
    last step index to the final density matrix.
    """

    u: np.ndarray
    outcome: np.ndarray
    fidelity: np.ndarray
    lyapunov: np.ndarray
    purity: np.ndarray
    states: dict
    first_hit: int | None
    absorbed_state: int | None
    # run_filtered only:
    estimate_fidelity: np.ndarray | None = None
    trace_distance: np.ndarray | None = None

    @property
    def steps_run(self):
        return len(self.u)

    @property
    def final_fidelity(self):
        return float(self.fidelity[-1])


def _revalidate(rho, k, ids):
    """Absorb round-off drift in a stack of states; abort loudly if one broke.

    Hermitize and renormalize every state, then check trace and positivity
    with one batched eigvalsh.  A state that fails is reported by
    density_violations, with the step and its realization index.
    """
    rho = hermitize(rho)
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    ok = np.isfinite(rho).all(axis=(1, 2))
    ok &= np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0) <= TRACE_TOL
    ok[ok] = np.linalg.eigvalsh(rho[ok])[:, 0] >= -PSD_TOL
    for r in np.flatnonzero(~ok):
        where = f"at step {k} in realization {ids[r]}"
        try:
            bad = density_violations(rho[r])
        except ValueError as e:  # NaN or Inf entries
            raise ValueError(f"state broke {where}: {e}") from e
        if bad:
            raise RuntimeError(f"state invariants violated {where}: {bad}")
    return rho


class _Streams:
    """One block of uniforms per live realization, drawn from its own stream.

    rng.random(k) is bit-identical to k calls of rng.random(), so reading a
    row's block in order, refilled from the same generator when it runs
    out, replays that realization's stream exactly.
    """

    def __init__(self, gens, block):
        self.gens = list(gens)
        self.block = block
        self.buf = np.array([g.random(block) for g in self.gens])
        self.cur = np.zeros(len(self.gens), dtype=np.intp)

    def draw(self, mask=None):
        """The next uniform of every live realization, or of those in mask."""
        rows = np.arange(len(self.cur)) if mask is None else np.flatnonzero(mask)
        for r in rows[self.cur[rows] == self.block]:
            self.buf[r] = self.gens[r].random(self.block)
            self.cur[r] = 0
        x = self.buf[rows, self.cur[rows]]
        self.cur[rows] += 1
        return x

    def keep(self, mask):
        self.gens = [g for g, live in zip(self.gens, mask) if live]
        self.buf = self.buf[mask]
        self.cur = self.cur[mask]


class _Log:
    """Logs of a stack of realizations as (R, steps + 1) arrays, by realization index."""

    def __init__(self, cfg, n_runs, filtered):
        self.threshold = cfg.fidelity_threshold
        self.n_star = cfg.p.n_star
        self.sigma = cfg.p.sigma
        states = (n_runs, cfg.steps + 1)
        self.u = np.zeros((n_runs, cfg.steps))
        self.outcome = np.zeros((n_runs, cfg.steps))
        self.fidelity = np.zeros(states)
        self.lyapunov = np.zeros(states)
        self.purity = np.zeros(states)
        self.est_fid = np.zeros(states) if filtered else None
        self.dist = np.zeros(states) if filtered else None
        self.steps_run = np.zeros(n_runs, dtype=int)
        self.final = np.zeros((n_runs, cfg.p.dim, cfg.p.dim), dtype=complex)

    def record_state(self, k, rows, rho, est=None):
        """Log the states after k steps in the given rows; return their fidelities."""
        d = rho.diagonal(axis1=1, axis2=2).real
        f = d[:, self.n_star]
        self.fidelity[rows, k] = f
        self.lyapunov[rows, k] = (d * self.sigma).sum(axis=-1)
        # Tr(rho^2) = sum_ij |rho_ij|^2 for Hermitian rho: the sum of the
        # squares of every real and imaginary part.
        self.purity[rows, k] = np.square(rho.view(float)).reshape(len(rho), -1).sum(axis=-1)
        if est is not None:
            self.est_fid[rows, k] = est[:, self.n_star, self.n_star].real
            self.dist[rows, k] = trace_distance(rho, est)
        return f

    def record_step(self, k, rows, u, mu):
        self.u[rows, k] = u
        self.outcome[rows, k] = mu

    def stop(self, k, ids, rho):
        """Realizations ids end after k steps in the states rho."""
        self.steps_run[ids] = k
        self.final[ids] = rho

    def trajectories(self):
        out = []
        for r, s in enumerate(self.steps_run):
            fid = self.fidelity[r, :s + 1].copy()
            hits = np.flatnonzero(fid >= self.threshold)
            diag = self.final[r].diagonal().real
            traj = Trajectory(
                u=self.u[r, :s].copy(),
                outcome=self.outcome[r, :s].copy(),
                fidelity=fid,
                lyapunov=self.lyapunov[r, :s + 1].copy(),
                purity=self.purity[r, :s + 1].copy(),
                states={int(s): self.final[r].copy()},
                first_hit=int(hits[0]) if hits.size else None,
                absorbed_state=(int(np.argmax(diag))
                                if float(np.max(diag)) >= ABSORB_THRESHOLD else None),
            )
            if self.est_fid is not None:
                traj.estimate_fidelity = self.est_fid[r, :s + 1].copy()
                traj.trace_distance = self.dist[r, :s + 1].copy()
            out.append(traj)
        return out


def _controller(cfg, prop, draw):
    """The configured feedback law, mapping a stack of states to their controls.

    LoopConfig leaves the measured modes the quadratic and exact-min laws.
    """
    if cfg.mode == "deterministic":
        return LinearLaw(cfg.p, prop.h, cfg.controller.kappa).controls
    if cfg.controller.kind == "quadratic":
        law = QuadraticLaw(cfg.p, prop.h, cfg.controller)
        return lambda rho: law.controls(rho, draw)
    return ExactMinLaw(cfg.p, prop, cfg.meas, cfg.controller).controls


def _collapse_estimate(meas, est, mu):
    p_est = (meas.weights[mu] * est.diagonal(axis1=1, axis2=2).real).sum(axis=-1)
    low = p_est <= P_FLOOR
    if low.any():
        # Recover once by mixing toward the maximally mixed state.
        dim = est.shape[-1]
        est = est.copy()
        est[low] = (1.0 - 1e-3) * est[low] + 1e-3 * np.eye(dim) / dim
        p_est = (meas.weights[mu] * est.diagonal(axis1=1, axis2=2).real).sum(axis=-1)
        if (p_est <= P_FLOOR).any():
            r = int(np.argmax(p_est <= P_FLOOR))
            raise FilterBreakdown(
                f"observed outcome {mu[r]} impossible under the filter state"
            )
    return meas.apply_outcomes(mu, est)


def _run(cfg, rho0, gens, est0=None):
    """The one step kernel: advance len(gens) realizations of cfg as one stack.

    Realization r starts from rho0 (and the filter from est0) and draws from
    the generator gens[r]; the deterministic loop draws nothing, and its
    gens holds one None per realization.  Each step measures (all modes but
    deterministic), takes the control from the post-measurement state, or
    from the filter state when ``est0`` is given, and propagates, for every
    live realization at once.
    Open-loop applies no unitary and logs u = 0; the deterministic loop
    applies exp(-i H0) after exp(-i H1 u) and logs the outcome as NaN.
    Open-loop stops once a basis state is absorbed, the other modes once
    the fidelity threshold is reached; a realization that stops leaves the
    stack, which is compacted by index.  Every array operation gives row r
    the same bits whatever the stack's size, so a realization's trajectory
    does not depend on which others run beside it.
    """
    open_loop = cfg.mode == "open-loop"
    measured = cfg.mode != "deterministic"
    n_runs = len(gens)
    rho = np.repeat(np.asarray(rho0, dtype=complex)[None], n_runs, axis=0)
    est = None if est0 is None else np.repeat(np.asarray(est0, dtype=complex)[None], n_runs, axis=0)
    streams = _Streams(gens, min(cfg.steps, DRAW_BLOCK)) if measured else None
    prop = None if open_loop else HermitianPropagator(cfg.h1)
    if not open_loop:
        control = _controller(cfg, prop, None if streams is None else streams.draw)
    if not measured:
        u0 = HermitianPropagator(cfg.h0).unitary(1.0)
        u0_dag = u0.conj().T
    ids = np.arange(n_runs)
    # Log rows of the live realizations: a slice, which is cheaper to write
    # through, until the first one stops.
    rows = slice(None)
    log = _Log(cfg, n_runs, est is not None)
    fid = log.record_state(0, rows, rho, est)
    for k in range(cfg.steps):
        if cfg.stop_at_threshold:
            done = (rho.diagonal(axis1=1, axis2=2).real.max(axis=-1) >= ABSORB_THRESHOLD
                    if open_loop else fid >= cfg.fidelity_threshold)
            if done.any():
                log.stop(k, ids[done], rho[done])
                live = ~done
                ids, rho, fid = ids[live], rho[live], fid[live]
                rows = ids
                est = None if est is None else est[live]
                if streams is not None:
                    streams.keep(live)
                if not ids.size:
                    break
        mu = np.nan
        if measured:
            mu = cfg.meas.sample_outcomes(rho, streams.draw())
            rho = cfg.meas.apply_outcomes(mu, rho)
            if est is not None:
                est = _collapse_estimate(cfg.meas, est, mu)
        u = 0.0
        if not open_loop:
            u = control(rho if est is None else est)
            rho = prop.conjugate_stack(rho, u)
            if est is not None:
                est = prop.conjugate_stack(est, u)
            if not measured:
                rho = u0 @ rho @ u0_dag
        if (k + 1) % REVALIDATE_EVERY == 0:
            rho = _revalidate(rho, k + 1, ids)
            if est is not None:
                est = _revalidate(est, k + 1, ids)
        log.record_step(k, rows, u, mu)
        fid = log.record_state(k + 1, rows, rho, est)
    log.stop(cfg.steps, ids, rho)
    return log.trajectories()


def _generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def run_deterministic(cfg, rho0):
    """Measurement-free loop with linear feedback: rho -> U0 U1(u) rho (.)†."""
    if cfg.mode != "deterministic" or cfg.controller.kind != "linear":
        raise ValueError("run_deterministic needs mode=deterministic with the linear controller")
    return _run(cfg, rho0, [None])[0]


def run_open_loop(cfg, rho0, seed):
    """Repeated measure-and-collapse with no unitary in between."""
    if cfg.mode != "open-loop":
        raise ValueError("run_open_loop needs mode=open-loop")
    return _run(cfg, rho0, [_generator(seed)])[0]


def run_stochastic(cfg, rho0, seed):
    """Measurement-driven closed loop: collapse, control, then exp(-i H1 u)."""
    if cfg.mode != "stochastic":
        raise ValueError("run_stochastic needs mode=stochastic")
    return _run(cfg, rho0, [_generator(seed)])[0]


def run_filtered(cfg, rho0, est0, seed):
    """Output feedback: control computed from a filter state, not the truth.

    The filter is updated with the same sampled outcome and the same applied
    control as the true state.
    """
    if cfg.mode != "filtered":
        raise ValueError("run_filtered needs mode=filtered")
    return _run(cfg, rho0, [_generator(seed)], est0)[0]


def trace_distance(a, b):
    """(1/2) * trace norm of a - b, pair by pair for stacks of shape (R, n, n)."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(a) - np.asarray(b)))
    return 0.5 * np.sum(np.abs(w), axis=-1)


@dataclass
class EnsembleResult:
    realizations: int
    final_fidelity: np.ndarray
    first_hit: np.ndarray          # -1 where the threshold was never reached
    absorbed_state: np.ndarray     # -1 where unabsorbed
    mean_fidelity_curve: np.ndarray
    mean_lyapunov_curve: np.ndarray
    hit_histogram: np.ndarray      # per-basis-state absorption counts
    unabsorbed: int
    trajectories: list

    def to_json(self):
        return {
            "realizations": self.realizations,
            "first_hit": self.first_hit.tolist(),
            "absorbed_state": self.absorbed_state.tolist(),
            "mean_fidelity_curve": self.mean_fidelity_curve.tolist(),
            "mean_lyapunov_curve": self.mean_lyapunov_curve.tolist(),
            "hit_histogram": self.hit_histogram.tolist(),
            "unabsorbed": self.unabsorbed,
            "index_convention": "0-based",
        }


def _padded(curve, length):
    if curve.size >= length:
        return curve[:length]
    return np.concatenate([curve, np.full(length - curve.size, curve[-1])])


def run_ensemble(cfg, rho0, n_realizations, master_seed):
    """Run independent realizations and aggregate convergence statistics.

    Only the ENSEMBLE_MODES are accepted.  Realization i uses the stream
    seeded by derive_seed(master_seed, i).  All realizations advance
    together through the batched kernel, which gives each the same bits as
    a run of it alone.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    if cfg.mode not in ENSEMBLE_MODES:
        raise ValueError(f"ensembles are not defined for mode {cfg.mode!r}")
    trajectories = _run(cfg, rho0, [_generator(derive_seed(master_seed, i))
                                    for i in range(n_realizations)])

    length = cfg.steps + 1
    dim = cfg.p.dim
    fid = np.zeros(length)
    lya = np.zeros(length)
    hist = np.zeros(dim, dtype=int)
    unabsorbed = 0
    final = np.zeros(n_realizations)
    hits = np.full(n_realizations, -1, dtype=int)
    absorbed = np.full(n_realizations, -1, dtype=int)
    for i, t in enumerate(trajectories):
        fid += _padded(t.fidelity, length)
        lya += _padded(t.lyapunov, length)
        final[i] = t.final_fidelity
        if t.first_hit is not None:
            hits[i] = t.first_hit
        if t.absorbed_state is not None:
            absorbed[i] = t.absorbed_state
            hist[t.absorbed_state] += 1
        else:
            unabsorbed += 1
    return EnsembleResult(
        realizations=n_realizations,
        final_fidelity=final,
        first_hit=hits,
        absorbed_state=absorbed,
        mean_fidelity_curve=fid / n_realizations,
        mean_lyapunov_curve=lya / n_realizations,
        hit_histogram=hist,
        unabsorbed=unabsorbed,
        trajectories=trajectories,
    )


def convergence_statistics(result):
    """Success rate, hitting-time quantiles and absorption frequencies."""
    hits = result.first_hit[result.first_hit >= 0]
    n = result.realizations
    freqs = result.hit_histogram / n
    intervals = []
    for phat in freqs:
        half = 3.0 * np.sqrt(max(phat * (1.0 - phat), 0.0) / n)
        intervals.append((float(phat - half), float(phat + half)))
    return {
        "success_rate": float(hits.size / n),
        "median_hitting_time": float(np.median(hits)) if hits.size else None,
        "p90_hitting_time": float(np.percentile(hits, 90)) if hits.size else None,
        "absorption_frequencies": freqs.tolist(),
        "absorption_3sigma_intervals": intervals,
        "unabsorbed": result.unabsorbed,
    }


def config_hash(obj):
    """Stable hash of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _cells(values, rows, fmt):
    """values formatted with fmt, empty where not finite, padded to rows cells."""
    cells = [fmt(x) if math.isfinite(x) else "" for x in values.tolist()[:rows]]
    return cells + [""] * (rows - len(cells))


def write_trajectories_csv(path, trajectories, cfg_hash="", master_seed=0):
    """CSV log: realization,k,u,outcome,fidelity,lyapunov,purity.

    u and outcome are empty where not applicable (final row of each
    realization; deterministic runs have no outcome).  The header comment
    carries the config hash and master seed; indices are 0-based.
    """
    g17 = "{:.17g}".format
    with open(path, "w") as f:
        f.write(f"# config_hash={cfg_hash} master_seed={master_seed} index_convention=0-based\n")
        f.write("realization,k,u,outcome,fidelity,lyapunov,purity\n")
        for i, t in enumerate(trajectories):
            rows = t.fidelity.size
            columns = zip(_cells(t.u, rows, g17), _cells(t.outcome, rows, lambda x: str(int(x))),
                          map(g17, t.fidelity.tolist()), map(g17, t.lyapunov.tolist()),
                          map(g17, t.purity.tolist()))
            f.writelines(f"{i},{k},{u},{out},{fid},{v},{pur}\n"
                         for k, (u, out, fid, v, pur) in enumerate(columns))
