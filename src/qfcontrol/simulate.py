"""One batched step kernel behind one runner per realization and the ensemble runner.

One step of the measurement-driven loop is: sample an outcome from the
current state, collapse, compute the control from the post-measurement state,
then apply exp(-i H1 u).  The deterministic (measurement-free) loop instead
applies exp(-i H0) exp(-i H1 u) with the linear feedback law.  One kernel,
``_run``, executes the step in all three modes for a stack of R realizations
at once: an (R, n, n) state, (R, steps + 1) logs and one random stream per
realization.  The open loop, measurement alone, carries only the (R, n)
populations, which the diagonal Kraus operators change through the
populations alone; ``_ClosedForm`` holds that update and gives the
purity and final states from rho0 and the record in closed form.
``run_ensemble`` runs every realization through the kernel together;
``run_trajectory`` checks its arguments against the mode and runs one
(R = 1).

Every realization owns an independent random stream derived from the master
seed with splitmix64, and the kernel gives each row the same bits whatever
the stack's size, so a realization's trajectory is the same run alone or in
an ensemble of any size.

The kernel's per-step calls pass scalars as 0-d arrays built once and test
guards with ``np.count_nonzero``: about 0.3 us less per ufunc and 0.7-1.2 us
less per guard than a Python float and ``.any()``/``.all()``, with the same
bits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _ONE,
    PSD_TOL,
    TRACE_TOL,
    HermitianPropagator,
    _frozen,
    density_violations,
    hermitize,
    is_hermitian,
    json_bool,
    json_int,
    json_number,
    validate_density,
)
from .control import (
    ControllerConfig,
    ExactMinLaw,
    LinearLaw,
    QuadraticLaw,
)
from .measurement import _reciprocal

__all__ = [
    "ABSORB_THRESHOLD",
    "ENSEMBLE_MODES",
    "EnsembleResult",
    "LoopConfig",
    "Trajectory",
    "config_hash",
    "convergence_statistics",
    "derive_seed",
    "run_ensemble",
    "run_trajectory",
    "splitmix64",
    "write_trajectories_csv",
]

# A run counts as absorbed in a basis state once its population reaches this.
ABSORB_THRESHOLD = 0.999
_ABSORB_THRESHOLD = _frozen(ABSORB_THRESHOLD)

_TRACE_TOL = _frozen(TRACE_TOL)
_MINUS_PSD_TOL = _frozen(-PSD_TOL)

REVALIDATE_EVERY = 50

# The log keeps the populations of this many states per realization and
# derives their curves once the block is full: one product per block costs
# less than one per step on a stack of a few states.
LOG_BLOCK = 50

# The modes run_ensemble accepts: the measured ones.  A deterministic run has
# no stream to vary.
ENSEMBLE_MODES = ("stochastic", "open-loop")


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
    Both must be integers: a bool or a float is refused, not truncated.
    """
    master = _fmix64(json_int(master_seed, "master_seed") & 0xFFFFFFFFFFFFFFFF)
    return splitmix64(master ^ (json_int(index, "index") & 0xFFFFFFFFFFFFFFFF))


@dataclass(frozen=True)
class LoopConfig:
    """Everything a trajectory engine needs except the initial state.

    A refusal names its field by the config path, as in ``loop.steps``.
    """

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
        if self.mode not in ("deterministic", "stochastic", "open-loop"):
            raise ValueError(f"loop.mode is {self.mode!r}, but must be 'deterministic', "
                             "'stochastic' or 'open-loop'")
        steps = json_int(self.steps, "loop.steps")
        if steps < 1:
            raise ValueError(f"loop.steps is {steps}, but must be at least 1")
        if self.mode == "deterministic" and self.h0 is None:
            raise ValueError("loop.mode is 'deterministic', which needs h0, a drift Hamiltonian "
                             "(may be zero)")
        if self.mode != "deterministic" and self.meas is None:
            raise ValueError(f"loop.mode is {self.mode!r}, which needs a measurement")
        if (self.mode == "deterministic") != (self.controller.kind == "linear"):
            raise ValueError(f"loop.mode is {self.mode!r}, which the {self.controller.kind} "
                             "controller cannot run; the linear controller runs the "
                             "deterministic mode only")
        json_bool(self.stop_at_threshold, "loop.stop_at_threshold")
        object.__setattr__(self, "fidelity_threshold",
                           json_number(self.fidelity_threshold, "loop.fidelity_threshold"))
        if not 0.0 < self.fidelity_threshold <= 1.0:
            raise ValueError(f"loop.fidelity_threshold is {self.fidelity_threshold}, "
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
    last step index to the final density matrix.  The arrays are copies of
    the used parts of the rows of the run's log.
    """

    u: np.ndarray
    outcome: np.ndarray
    fidelity: np.ndarray
    lyapunov: np.ndarray
    purity: np.ndarray
    states: dict
    first_hit: int | None
    absorbed_state: int | None

    @property
    def steps_run(self):
        return len(self.u)

    @property
    def final_fidelity(self):
        return float(self.fidelity[-1])


def _abort(state, where):
    """End the run on a broken state with the report of density_violations.

    A ValueError for NaN or Inf entries, else a RuntimeError.
    """
    try:
        bad = density_violations(state)
    except ValueError as e:  # NaN or Inf entries
        raise ValueError(f"state broke {where}: {e}") from e
    raise RuntimeError(f"state invariants violated {where}: "
                       f"{bad or 'trace or positivity, in the batched check'}")


def _first_broken(rho):
    """Index of the first state of the stack that is not a density matrix, else -1.

    Finiteness and trace are checked on every state, positivity with one
    batched eigvalsh over those that pass.
    """
    ok = np.logical_and.reduce(np.isfinite(rho), (1, 2))
    ok &= np.abs(rho.trace(axis1=1, axis2=2) - _ONE) <= _TRACE_TOL
    ok[ok] = np.linalg.eigvalsh(rho[ok])[:, 0] >= _MINUS_PSD_TOL
    return int(np.argmin(ok)) if np.count_nonzero(ok) < len(ok) else -1


def _revalidate(rho, k, ids):
    """Absorb round-off drift in a stack of states; abort loudly if one broke.

    Hermitize and renormalize every state, then check them.  The first
    state that fails aborts the run, with the step and its realization
    index.
    """
    rho = hermitize(rho)
    rho /= rho.trace(axis1=1, axis2=2).real[:, None, None]
    r = _first_broken(rho)
    if r >= 0:
        _abort(rho[r], f"at step {k} in realization {ids[r]}")
    return rho


class _ClosedForm:
    """The open loop's model: its populations step by step, its states in closed form.

    With no control, step k multiplies rho_ij by c[mu, i] c[mu, j]^* / p, so
    the populations d evolve on their own (``collapse``, ``renormalize``),
    and after a record holding outcome mu N_mu times,

        rho_ij = rho0_ij sqrt(d_i d_j / (d0_i d0_j)) exp(i (phi_i - phi_j)),

    with phi_i = sum_mu N_mu arg c[mu, i] (Bauer and Bernard, Phys. Rev. A
    84, 044103, 2011).  The purity is then d^T G d with G_ij = |rho0_ij|^2
    / (d0_i d0_j), and 0 where d0_i d0_j = 0, where rho0_ij is 0 too.  For
    real coefficients exp(i phi_i) is a sign, counted exactly.  rho0 enters
    by its Hermitian part, which the full-state loop's revalidation takes.
    """

    def __init__(self, meas, rho0):
        self.rho0 = hermitize(rho0)
        self.d0 = self.rho0.diagonal().real.copy()
        outer = self.d0[:, None] * self.d0
        self.gram = np.divide(np.abs(self.rho0) ** 2, outer,
                              out=np.zeros_like(outer), where=outer > 0)
        self.real = not np.any(meas.coeffs.imag)
        # Per outcome and level: a sign flip for real coefficients, else the phase.
        self.turns = meas.coeffs.real < 0 if self.real else np.angle(meas.coeffs)
        # Re projectors[mu]_nn, by which a collapse multiplies the
        # populations: c c^* has an imaginary part of exactly 0, so the
        # product has the bits of the full collapse's diagonal, where
        # weights, the same numbers through hypot, can differ in the last bit.
        self.factors = np.ascontiguousarray(meas.projectors.diagonal(axis1=1, axis2=2).real)

    def collapse(self, d, mu, p):
        """The populations (R, n) after outcomes mu of probabilities p, from d.

        d * Re projectors[mu]_nn * (1/p): the products that
        QndMeasurement.collapse makes on the diagonal, bit for bit.
        """
        post = self.factors[mu]
        post *= d
        post *= _reciprocal(mu, p)[:, None]
        return post

    @staticmethod
    def renormalize(d, k, ids):
        """_revalidate for the populations (R, n), with the same bits.

        The trace is summed as ``rho.trace`` sums a complex diagonal, in
        NumPy's pairwise order for complex numbers, which groups the terms
        differently from a float sum once n >= 8.  The division of a complex
        entry by the real trace is Smith's rule, a multiply by its
        reciprocal on the real part.  A diagonal state is a density matrix
        when its populations are finite, nonnegative to PSD_TOL and sum to
        1, which is what is checked; the final states get the full check
        when the log closes.
        """
        d = d * np.reciprocal(np.add.reduce(d.astype(complex), -1).real)[:, None]
        ok = np.logical_and.reduce(d >= _MINUS_PSD_TOL, 1)
        ok &= np.abs(np.add.reduce(d, -1) - _ONE) <= _TRACE_TOL
        if np.count_nonzero(ok) < len(ok):
            r = int(np.argmin(ok))
            _abort(np.diag(d[r]), f"at step {k} in realization {ids[r]}")
        return d

    def purity(self, d):
        """Tr(rho^2) of the states with populations d, as d^T G d.

        einsum's own loops give each row the same bits whatever the number
        of rows, where a BLAS product does not, and cost less than a
        broadcast product and reduction over (R, n, n).
        """
        return np.add.reduce(np.einsum("rj,jk->rk", d, self.gram) * d, -1)

    def states(self, d, outcome, steps_run):
        """The states (R, n, n) whose populations are d after the logged records.

        Row r's record is outcome[r, :steps_run[r]].  The diagonal is d
        exactly.  Sums run elementwise, so every row has the same bits
        whatever the stack's size.
        """
        within = np.arange(outcome.shape[1]) < steps_run[:, None]
        counts = np.stack([np.count_nonzero((outcome == mu) & within, axis=1)
                           for mu in range(len(self.turns))], 1)
        turned = np.add.reduce(counts[:, :, None] * self.turns, 1)
        amp = np.sqrt(np.divide(d, self.d0, out=np.zeros_like(d), where=self.d0 > 0))
        amp = np.where(turned % 2, -amp, amp) if self.real else amp * np.exp(1j * turned)
        rho = self.rho0 * amp[:, :, None] * amp.conj()[:, None, :]
        level = np.arange(d.shape[1])
        rho[:, level, level] = d
        return rho


class _Log:
    """Logs of a stack of realizations as (R, steps + 1) arrays, by realization index.

    Every state's populations go into an (R, LOG_BLOCK, n) block; when the
    block is full, or its rows stop, the fidelity (column n*), the Lyapunov
    value (the sum of sigma times the populations) and, in the open loop,
    the purity are logged for its states at once.  The full-state modes log
    their purity, which needs the whole state, one state at a time.
    """

    def __init__(self, cfg, n_runs, form):
        self.threshold = cfg.fidelity_threshold
        self.n_star = cfg.p.n_star
        self.sigma = cfg.p.sigma
        states = (n_runs, cfg.steps + 1)
        self.u = np.zeros((n_runs, cfg.steps))
        self.outcome = np.zeros((n_runs, cfg.steps))
        self.fidelity = np.zeros(states)
        self.lyapunov = np.zeros(states)
        self.purity = np.zeros(states)
        self.steps_run = np.zeros(n_runs, dtype=int)
        self.block = np.zeros((n_runs, LOG_BLOCK, cfg.p.dim))
        # The open loop's _ClosedForm, whose stack holds populations only.
        self.form = form
        if form is None:
            self.final = np.zeros((n_runs, cfg.p.dim, cfg.p.dim), dtype=complex)
        else:
            self.final = np.zeros((n_runs, cfg.p.dim))

    def record_state(self, k, rows, rho):
        """Log the states after k steps in the given rows.

        rho is the stack of states, or of the open loop's populations.
        Returns their populations.
        """
        if self.form is None:
            d = rho.diagonal(axis1=1, axis2=2).real
            # Tr(rho^2) = sum_ij |rho_ij|^2 for Hermitian rho: the sum of the
            # squares of every real and imaginary part.
            self.purity[rows, k] = np.add.reduce(np.square(rho.view(float)).reshape(len(rho), -1), -1)
        else:
            d = rho
        self.block[rows, k % LOG_BLOCK] = d
        if k % LOG_BLOCK == LOG_BLOCK - 1:
            self._log_block(k, rows)
        return d

    def record_step(self, k, rows, u, mu):
        self.u[rows, k] = u
        self.outcome[rows, k] = mu

    def stop(self, k, ids, rho):
        """Realizations ids end after k steps in the states (or populations) rho.

        Their last fidelity and Lyapunov value fill the rest of their rows,
        which moves no first hit: a copy is a hit only if its original is.
        """
        self.steps_run[ids] = k
        self.final[ids] = rho
        self._log_block(k, ids)
        self.fidelity[ids, k + 1:] = self.fidelity[ids, k, None]
        self.lyapunov[ids, k + 1:] = self.lyapunov[ids, k, None]

    def _log_block(self, k, rows):
        """Log the curves of the given rows' blocked states, from the block's start to k."""
        j = k % LOG_BLOCK + 1
        d = self.block[rows, :j]
        logged = slice(k + 1 - j, k + 1)
        self.fidelity[rows, logged] = d[..., self.n_star]
        self.lyapunov[rows, logged] = np.add.reduce(d * self.sigma, -1)
        if self.form is not None:
            purity = self.form.purity(d.reshape(-1, d.shape[-1]))
            self.purity[rows, logged] = purity.reshape(d.shape[:2])

    def close(self):
        """Every realization's results, in one pass over the (R, steps + 1) logs.

        The open loop's final states are built here from their populations
        and records, and checked like a revalidated stack.  first_hit and
        absorbed are -1 where there is none.
        """
        # Free the block before the arrays below are built.
        del self.block
        if self.form is not None:
            self.final = self.form.states(self.final, self.outcome, self.steps_run)
            r = _first_broken(self.final)
            if r >= 0:
                _abort(self.final[r], f"at step {self.steps_run[r]} in realization {r}")
        hit = self.fidelity >= self.threshold
        self.first_hit = np.where(np.logical_or.reduce(hit, 1), hit.argmax(axis=1), -1)
        diag = self.final.diagonal(axis1=1, axis2=2).real
        self.absorbed = np.where(np.maximum.reduce(diag, 1) >= _ABSORB_THRESHOLD,
                                 diag.argmax(axis=1), -1)

    def take_trajectories(self):
        """One Trajectory per realization, holding copies of the used part of its log rows.

        Copies, so that no Trajectory keeps the whole log alive, the unused
        tail of a row that stopped early included.  The log gives up each of
        its five arrays as soon as its rows are copied, so the copies never
        sit beside all of it; after this call it has no u, outcome, fidelity,
        lyapunov or purity, and a read of one raises AttributeError.
        """
        taken = []
        for name, extra in (("u", 0), ("outcome", 0), ("fidelity", 1), ("lyapunov", 1),
                            ("purity", 1)):
            log = getattr(self, name)
            taken.append([log[r, :s + extra].copy() for r, s in enumerate(self.steps_run)])
            delattr(self, name)
        out = []
        for r, (s, u, outcome, fidelity, lyapunov, purity) in enumerate(
                zip(self.steps_run, *taken)):
            hit, level = int(self.first_hit[r]), int(self.absorbed[r])
            out.append(Trajectory(
                u=u,
                outcome=outcome,
                fidelity=fidelity,
                lyapunov=lyapunov,
                purity=purity,
                states={int(s): self.final[r]},
                first_hit=hit if hit >= 0 else None,
                absorbed_state=level if level >= 0 else None,
            ))
        return out


def _controller(cfg, prop):
    """The configured feedback law, mapping a stack of states to their controls.

    LoopConfig gives the deterministic mode the linear law and the measured
    modes the quadratic or exact-min law.
    """
    if cfg.controller.kind == "linear":
        return LinearLaw(cfg.p, prop.h, cfg.controller.kappa).controls
    if cfg.controller.kind == "quadratic":
        return QuadraticLaw(cfg.p, prop.h, cfg.controller).controls
    return ExactMinLaw(cfg.p, prop, cfg.meas, cfg.controller).controls


def _initial_state(state, dim, name):
    """state as a complex array, when it is a dim x dim density matrix."""
    if np.shape(state) != (dim, dim):
        raise ValueError(f"{name} has shape {np.shape(state)}, but p has dimension {dim}")
    try:
        return validate_density(state)
    except ValueError as e:
        raise ValueError(f"{name} is not a density matrix: {e}") from e


def _run(cfg, rho0, seeds):
    """The one step kernel: advance len(seeds) realizations of cfg as one stack.

    Realization r starts from rho0, checked to be a density matrix of the
    config's dimension, and draws from the PCG64 stream seeded by seeds[r];
    the deterministic loop draws nothing, and its seeds hold one None per
    realization.  Each step measures (the stochastic and open-loop modes),
    takes the control from the post-measurement state (the stochastic and
    deterministic modes) and propagates, for every live realization at
    once.  A measured step samples from ``QndMeasurement.probabilities``
    of the populations that the log returns.
    Open-loop applies no unitary and logs u = 0; the deterministic loop
    applies exp(-i H0) after exp(-i H1 u) and logs the outcome as NaN.
    Open-loop stops once a basis state is absorbed, the other modes once
    the fidelity threshold is reached; a realization that stops leaves the
    stack, which is compacted by index, its populations with it.  Every
    array operation gives row r the same bits whatever the stack's size,
    so a realization's trajectory does not depend on which others run
    beside it.  Returns the stack's closed _Log.

    The open loop carries the populations d (R, n) in place of the states:
    it samples from the same probabilities of the same populations, and its
    ``_ClosedForm`` collapses and renormalizes d with the products that the
    full-state collapse and ``_revalidate`` make on the diagonal.  So every
    outcome, fidelity, Lyapunov value, hit and absorbed level has the bits
    of the full-state loop.  Its purity (d^T G d, to about 1e-15) and its
    final states come from the same ``_ClosedForm``; the final states'
    diagonals are d exactly, and they pass the batched density check when
    the log closes.

    A measured realization takes one uniform per step, and all of them are
    drawn up front into one (R, steps) table, each row filled in place by
    its own stream; rng.random(k) gives the same bits as k calls of
    rng.random(), so step k reads the k-th draw of each stream.  The table
    is one float array beside the five (R, steps [+ 1]) arrays of the log,
    so it adds at most 20 % to the log's memory.  Seeding a stream goes
    through NumPy's SeedSequence, which hashes the seed into PCG64's state:
    with the generator, about 11 us per realization, some 4 % of the
    open_loop workload's run.  That cost stays, because the hash fixes
    every stream's bits.
    """
    open_loop = cfg.mode == "open-loop"
    measured = cfg.mode != "deterministic"
    n_runs = len(seeds)
    rho0 = _initial_state(rho0, cfg.p.dim, "rho0")
    form = _ClosedForm(cfg.meas, rho0) if open_loop else None
    rho = np.repeat((rho0 if form is None else form.d0)[None], n_runs, axis=0)
    if measured:
        uniforms = np.empty((n_runs, cfg.steps))
        for row, s in zip(uniforms, seeds):
            np.random.Generator(np.random.PCG64(s)).random(out=row)
        # The open loop carries populations, the other measured modes states.
        collapse = cfg.meas.collapse if form is None else form.collapse
    prop = None if open_loop else HermitianPropagator(cfg.h1)
    if not open_loop:
        control = _controller(cfg, prop)
    if not measured:
        u0 = HermitianPropagator(cfg.h0).unitary(1.0)
        u0_dag = u0.conj().T
    n_star, threshold = cfg.p.n_star, _frozen(cfg.fidelity_threshold)
    ids = np.arange(n_runs)
    # Log and table rows of the live realizations: a slice, which is cheaper
    # to index with, until the first one stops.
    rows = slice(None)
    log = _Log(cfg, n_runs, form)
    d = log.record_state(0, rows, rho)
    for k in range(cfg.steps):
        if cfg.stop_at_threshold:
            done = (np.maximum.reduce(d, -1) >= _ABSORB_THRESHOLD if open_loop
                    else d[:, n_star] >= threshold)
            if np.count_nonzero(done):
                log.stop(k, ids[done], rho[done])
                live = ~done
                ids, rho, d = ids[live], rho[live], d[live]
                rows = ids
                if not ids.size:
                    break
        mu = np.nan
        if measured:
            mu, p_mu = cfg.meas.sample(cfg.meas.probabilities(d), uniforms[rows, k])
            rho = collapse(rho, mu, p_mu)
        u = 0.0
        if not open_loop:
            u = control(rho)
            rho = prop.conjugate_stack(rho, u)
            if not measured:
                rho = u0 @ rho @ u0_dag
        if (k + 1) % REVALIDATE_EVERY == 0:
            rho = (_revalidate if form is None else form.renormalize)(rho, k + 1, ids)
        log.record_step(k, rows, u, mu)
        d = log.record_state(k + 1, rows, rho)
    log.stop(cfg.steps, ids, rho)
    log.close()
    return log


def run_trajectory(cfg, rho0, seed=None):
    """Run one realization of cfg from rho0 and return its Trajectory.

    seed seeds the stream of the stochastic and open-loop modes; the
    deterministic mode draws nothing and takes no seed.  It must be a
    nonnegative integer: a bool or a float is refused, not truncated.
    """
    deterministic = cfg.mode == "deterministic"
    if (seed is None) != deterministic:
        raise ValueError(f"{cfg.mode} mode {'takes no' if deterministic else 'needs a'} seed")
    if seed is not None and json_int(seed, "seed") < 0:
        raise ValueError(f"seed is {seed}, but must be nonnegative")
    return _run(cfg, rho0, [seed]).take_trajectories()[0]


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


def run_ensemble(cfg, rho0, n_realizations, master_seed):
    """Run independent realizations and aggregate convergence statistics.

    Only the ENSEMBLE_MODES are accepted.  Realization i uses the stream
    seeded by derive_seed(master_seed, i).  All realizations advance
    together through the batched kernel, which gives each the same bits as
    a run of it alone; the mean curves add them up in index order.
    n_realizations and master_seed must be integers: a bool or a float is
    refused, not truncated (master_seed by derive_seed).
    """
    if json_int(n_realizations, "n_realizations") < 1:
        raise ValueError("need at least one realization")
    if cfg.mode not in ENSEMBLE_MODES:
        raise ValueError(f"ensembles are not defined for mode {cfg.mode!r}")
    log = _run(cfg, rho0, [derive_seed(master_seed, i) for i in range(n_realizations)])
    absorbed = log.absorbed
    return EnsembleResult(
        realizations=n_realizations,
        final_fidelity=log.fidelity[:, -1].copy(),
        first_hit=log.first_hit,
        absorbed_state=absorbed,
        mean_fidelity_curve=np.add.reduce(log.fidelity, 0, initial=0.0) / n_realizations,
        mean_lyapunov_curve=np.add.reduce(log.lyapunov, 0, initial=0.0) / n_realizations,
        hit_histogram=np.bincount(absorbed[absorbed >= 0], minlength=cfg.p.dim),
        unabsorbed=int(np.count_nonzero(absorbed < 0)),
        trajectories=log.take_trajectories(),  # last: it empties the log
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


def _column(values, fmt):
    """A template cell for one column and the values it takes.

    fmt over the values themselves when all are finite, else %s over cells
    formatted one by one and left empty where not finite.
    """
    if np.isfinite(values).all():
        return fmt, values.tolist()
    return "%s", [fmt % x if math.isfinite(x) else "" for x in values.tolist()]


def write_trajectories_csv(path, trajectories, cfg_hash="", master_seed=0):
    """CSV log: realization,k,u,outcome,fidelity,lyapunov,purity.

    u and outcome are empty where not applicable (final row of each
    realization; deterministic runs have no outcome).  The header comment
    carries the config hash and master seed; indices are 0-based.  Each
    realization's rows come from one %-template, with every float as %.17g.
    """
    with open(path, "w") as f:
        f.write(f"# config_hash={cfg_hash} master_seed={master_seed} index_convention=0-based\n")
        f.write("realization,k,u,outcome,fidelity,lyapunov,purity\n")
        for i, t in enumerate(trajectories):
            s = t.u.size
            u_cell, u = _column(t.u, "%.17g")
            out_cell, out = _column(t.outcome, "%d")
            fid, v, pur = t.fidelity.tolist(), t.lyapunov.tolist(), t.purity.tolist()
            step = f"{i},%d,{u_cell},{out_cell},%.17g,%.17g,%.17g\n"
            f.writelines([step % row for row in zip(range(s), u, out, fid, v, pur)])
            f.write(f"{i},{s},,,%.17g,%.17g,%.17g\n" % (fid[s], v[s], pur[s]))
