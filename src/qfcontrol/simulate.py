"""One trajectory step kernel behind four entry points, plus the ensemble runner.

One step of the measurement-driven loop is: sample an outcome from the
current state, collapse, compute the control from the post-measurement state,
then apply exp(-i H1 u).  The deterministic (measurement-free) loop instead
applies exp(-i H0) exp(-i H1 u) with the linear feedback law.  One kernel,
``_run``, executes the step in all four modes; ``run_stochastic``,
``run_open_loop``, ``run_deterministic`` and ``run_filtered`` check the
mode, seed the stream and call it.

Every realization owns an independent random stream derived from the master
seed with splitmix64, so ensemble results are bit-identical for any thread
count.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    HermitianPropagator,
    density_violations,
    fidelity_to_basis,
    hermitize,
    purity,
)
from .control import (
    ControllerConfig,
    exact_min_feedback,
    linear_feedback,
    lyapunov_v,
    quadratic_feedback,
)
from .measurement import P_FLOOR

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
        dim = self.p.dim
        for name, h in (("h1", self.h1), ("h0", self.h0)):
            if h is not None and np.shape(h) != (dim, dim):
                raise ValueError(f"{name} has shape {np.shape(h)}, but p has dimension {dim}")
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


def _revalidate(rho, k):
    """Absorb round-off drift; abort loudly if the state actually broke."""
    rho = hermitize(rho)
    rho = rho / float(np.trace(rho).real)
    bad = density_violations(rho)
    if bad:
        raise RuntimeError(f"state invariants violated at step {k}: {bad}")
    return rho


class _Log:
    def __init__(self, cfg, rho0, est0=None):
        self.cfg = cfg
        self.u = []
        self.outcome = []
        self.fidelity = []
        self.lyapunov = []
        self.purity = []
        self.first_hit = None
        self.est_fid = None if est0 is None else []
        self.dist = None if est0 is None else []
        self.record_state(0, rho0, est0)

    def record_state(self, k, rho, est=None):
        f = fidelity_to_basis(rho, self.cfg.p.n_star)
        self.fidelity.append(f)
        self.lyapunov.append(lyapunov_v(self.cfg.p, rho))
        self.purity.append(purity(rho))
        if self.first_hit is None and f >= self.cfg.fidelity_threshold:
            self.first_hit = k
        if est is not None:
            self.est_fid.append(fidelity_to_basis(est, self.cfg.p.n_star))
            self.dist.append(trace_distance(rho, est))

    def record_step(self, u, outcome):
        self.u.append(u)
        self.outcome.append(outcome)

    def finish(self, rho):
        diag = np.asarray(rho).diagonal().real
        absorbed = int(np.argmax(diag)) if float(np.max(diag)) >= ABSORB_THRESHOLD else None
        traj = Trajectory(
            u=np.asarray(self.u, dtype=float),
            outcome=np.asarray(self.outcome, dtype=float),
            fidelity=np.asarray(self.fidelity, dtype=float),
            lyapunov=np.asarray(self.lyapunov, dtype=float),
            purity=np.asarray(self.purity, dtype=float),
            states={len(self.fidelity) - 1: np.asarray(rho).copy()},
            first_hit=self.first_hit,
            absorbed_state=absorbed,
        )
        if self.est_fid is not None:
            traj.estimate_fidelity = np.asarray(self.est_fid, dtype=float)
            traj.trace_distance = np.asarray(self.dist, dtype=float)
        return traj


def _control_from(cfg, prop, rho, rng):
    kind = cfg.controller.kind
    if cfg.mode == "deterministic":
        return linear_feedback(cfg.p, cfg.h1, rho, cfg.controller.kappa).u
    if kind == "quadratic":
        return quadratic_feedback(cfg.p, prop.h, rho, cfg.controller, rng).u
    if kind == "exact-min":
        return exact_min_feedback(cfg.p, prop, cfg.meas, rho, cfg.controller).u
    raise ValueError(f"stochastic loop cannot use the {kind!r} controller")


def _collapse_estimate(cfg, est, mu):
    p_est = float(cfg.meas.weights[mu] @ est.diagonal().real)
    if p_est <= P_FLOOR:
        # Recover once by mixing toward the maximally mixed state.
        dim = est.shape[0]
        est = (1.0 - 1e-3) * est + 1e-3 * np.eye(dim) / dim
        p_est = float(cfg.meas.weights[mu] @ est.diagonal().real)
        if p_est <= P_FLOOR:
            raise FilterBreakdown(
                f"observed outcome {mu} impossible under the filter state"
            )
    return cfg.meas.apply_outcome(mu, est)


def _run(cfg, rho0, rng=None, est0=None):
    """The one step kernel behind all four trajectory modes.

    Each step measures (all modes but deterministic), takes the control from
    the post-measurement state, or from the filter state when ``est0`` is
    given, and propagates.  Open-loop applies no unitary and logs u = 0; the
    deterministic loop applies exp(-i H0) after exp(-i H1 u) and logs the
    outcome as NaN.  Open-loop stops once a basis state is absorbed, the
    other modes once the fidelity threshold is reached.
    """
    open_loop = cfg.mode == "open-loop"
    measured = cfg.mode != "deterministic"
    rho = np.asarray(rho0, dtype=complex)
    est = None if est0 is None else np.asarray(est0, dtype=complex)
    prop = None if open_loop else HermitianPropagator(cfg.h1)
    if not measured:
        u0 = HermitianPropagator(cfg.h0).unitary(1.0)
        u0_dag = u0.conj().T
    log = _Log(cfg, rho, est)
    for k in range(cfg.steps):
        if cfg.stop_at_threshold and (
            float(np.max(rho.diagonal().real)) >= ABSORB_THRESHOLD if open_loop
            else log.fidelity[-1] >= cfg.fidelity_threshold
        ):
            break
        mu = np.nan
        if measured:
            mu = cfg.meas.sample_outcome(rho, rng).mu
            rho = cfg.meas.apply_outcome(mu, rho)
            if est is not None:
                est = _collapse_estimate(cfg, est, mu)
        u = 0.0
        if not open_loop:
            u = _control_from(cfg, prop, rho if est is None else est, rng)
            rho = prop.conjugate(rho, u)
            if est is not None:
                est = prop.conjugate(est, u)
            if not measured:
                rho = u0 @ rho @ u0_dag
        if (k + 1) % REVALIDATE_EVERY == 0:
            rho = _revalidate(rho, k + 1)
            if est is not None:
                est = _revalidate(est, k + 1)
        log.record_step(u, mu)
        log.record_state(k + 1, rho, est)
    return log.finish(rho)


def run_deterministic(cfg, rho0):
    """Measurement-free loop with linear feedback: rho -> U0 U1(u) rho (.)†."""
    if cfg.mode != "deterministic" or cfg.controller.kind != "linear":
        raise ValueError("run_deterministic needs mode=deterministic with the linear controller")
    return _run(cfg, rho0)


def run_open_loop(cfg, rho0, seed):
    """Repeated measure-and-collapse with no unitary in between."""
    if cfg.mode != "open-loop":
        raise ValueError("run_open_loop needs mode=open-loop")
    return _run(cfg, rho0, np.random.Generator(np.random.PCG64(seed)))


def run_stochastic(cfg, rho0, seed):
    """Measurement-driven closed loop: collapse, control, then exp(-i H1 u)."""
    if cfg.mode != "stochastic":
        raise ValueError("run_stochastic needs mode=stochastic")
    return _run(cfg, rho0, np.random.Generator(np.random.PCG64(seed)))


def run_filtered(cfg, rho0, est0, seed):
    """Output feedback: control computed from a filter state, not the truth.

    The filter is updated with the same sampled outcome and the same applied
    control as the true state.
    """
    if cfg.mode != "filtered":
        raise ValueError("run_filtered needs mode=filtered")
    return _run(cfg, rho0, np.random.Generator(np.random.PCG64(seed)), est0)


def trace_distance(a, b):
    """(1/2) * trace norm of a - b."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(a) - np.asarray(b)))
    return 0.5 * float(np.sum(np.abs(w)))


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


def run_ensemble(cfg, rho0, n_realizations, master_seed, threads=None):
    """Run independent realizations and aggregate convergence statistics.

    Only the ENSEMBLE_MODES are accepted.  Realization i uses the stream
    seeded by derive_seed(master_seed, i); results are bit-identical for any
    thread count because each task is isolated and the reduction is ordered
    by realization index.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    if cfg.mode not in ENSEMBLE_MODES:
        raise ValueError(f"ensembles are not defined for mode {cfg.mode!r}")
    run = run_stochastic if cfg.mode == "stochastic" else run_open_loop

    def one(i):
        return run(cfg, rho0, derive_seed(master_seed, i))

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trajectories = list(pool.map(one, range(n_realizations)))
    else:
        trajectories = [one(i) for i in range(n_realizations)]

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


def write_trajectories_csv(path, trajectories, cfg_hash="", master_seed=0):
    """CSV log: realization,k,u,outcome,fidelity,lyapunov,purity.

    u and outcome are empty where not applicable (final row of each
    realization; deterministic runs have no outcome).  The header comment
    carries the config hash and master seed; indices are 0-based.
    """
    with open(path, "w") as f:
        f.write(f"# config_hash={cfg_hash} master_seed={master_seed} index_convention=0-based\n")
        f.write("realization,k,u,outcome,fidelity,lyapunov,purity\n")
        for i, t in enumerate(trajectories):
            for k in range(t.fidelity.size):
                u = f"{t.u[k]:.17g}" if k < t.u.size and np.isfinite(t.u[k]) else ""
                out = (f"{int(t.outcome[k])}"
                       if k < t.outcome.size and np.isfinite(t.outcome[k]) else "")
                f.write(
                    f"{i},{k},{u},{out},{t.fidelity[k]:.17g},"
                    f"{t.lyapunov[k]:.17g},{t.purity[k]:.17g}\n"
                )
