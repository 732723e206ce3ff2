"""The step kernel's methods against their plain forms, bit for bit.

The kernel passes scalars as 0-d arrays, tests guards with np.count_nonzero
and fills choices with np.copysign and masked np.divide, because on stacks
of a few small matrices NumPy's dispatch costs more than the arithmetic.
Each form does the same IEEE operations on the same operands as the plain
one in ``helpers``, so the results must agree in every bit, on random
stacks of 1, 5 and 40 states and on the edge rows: zeros of both signs,
the flatness tolerance 1e-12 and its neighbouring floats, NaN rows, a
measurement branch of probability exactly zero, and eps > 0.  A call that
raises must raise the same error with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    ExactMinLaw,
    HermitianPropagator,
    LinearLaw,
    QndMeasurement,
    QuadraticLaw,
)
from qfcontrol.measurement import P_FLOOR
from helpers import (
    choose_plain,
    coefficients_plain,
    conjugate_stack_plain,
    linear_controls_plain,
    minimize_plain,
    random_hermitian,
    random_measurement,
    random_mixed_density,
    sample_and_collapse,
    sample_and_collapse_plain,
)

STACKS = st.sampled_from([1, 5, 40])
SEEDS = st.integers(0, 2**32 - 1)

# Zeros of both signs, the flatness tolerance of the quadratic law and the
# floats on either side of it, and NaN.
TOL = 1e-12
EDGES = np.array([0.0, -0.0, TOL, -TOL, np.nextafter(TOL, 0.0), np.nextafter(TOL, 1.0),
                  np.nextafter(-TOL, 0.0), np.nextafter(-TOL, -1.0), np.nan])


def outcome(call):
    """("raised", type, message), or ("returned", (dtype, shape, bytes) of each array)."""
    try:
        result = call()
    except (ValueError, RuntimeError) as e:
        return "raised", type(e), str(e)
    arrays = map(np.asarray, result if isinstance(result, tuple) else (result,))
    return "returned", *((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def random_system(rng, dim):
    sigma = rng.normal(size=dim) * 10
    return DiagonalObservable(sigma, int(np.argmin(sigma))), random_hermitian(rng, dim)


def random_stack(rng, dim, stack):
    return np.array([random_mixed_density(rng, dim) for _ in range(stack)])


def dead_branch_measurement(rng, m, dim, floor=0.0):
    """Outcome 0 has weight floor on level 0, so |0><0| gives it probability floor."""
    weights = rng.dirichlet(np.full(m, 0.5), size=dim).T
    weights[0, 0] = floor
    weights[1:, 0] = (1.0 - floor) * rng.dirichlet(np.full(m - 1, 0.5))
    return QndMeasurement(np.sqrt(weights) * np.exp(2j * np.pi * rng.random((m, dim))))


def probabilities(meas, rho):
    """The unclamped outcome probabilities of a stack of states, which the kernel samples from."""
    return meas.probabilities(rho.diagonal(axis1=1, axis2=2).real)


class TestQuadraticChoose:
    @pytest.mark.parametrize("u_bar", [0.1, 1.0, 1e-13])
    def test_every_edge_pair(self, u_bar):
        law = QuadraticLaw(DiagonalObservable(np.array([2.0, 1.0]), 1), np.zeros((2, 2)),
                           ControllerConfig(kind="quadratic", u_bar=u_bar))
        a, b = (x.ravel() for x in np.meshgrid(EDGES, EDGES))
        assert outcome(lambda: law.choose(a.copy(), b.copy())) == outcome(
            lambda: choose_plain(law, a, b))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, stack=STACKS, u_bar=st.floats(1e-3, 2.0))
    def test_random_rows_among_edge_rows(self, seed, stack, u_bar):
        rng = np.random.default_rng(seed)
        law = QuadraticLaw(DiagonalObservable(np.array([2.0, 1.0]), 1), np.zeros((2, 2)),
                           ControllerConfig(kind="quadratic", u_bar=u_bar))
        a, b = rng.normal(size=(2, stack)) * 10.0 ** rng.integers(-14, 2, size=(2, stack))
        edge = rng.random((2, stack)) < 0.3
        a[edge[0]] = rng.choice(EDGES, edge[0].sum())
        b[edge[1]] = rng.choice(EDGES, edge[1].sum())
        assert outcome(lambda: law.choose(a.copy(), b.copy())) == outcome(
            lambda: choose_plain(law, a, b))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, stack=STACKS, dim=st.integers(2, 8), eps=st.sampled_from([0.0, 0.5, 5.0]))
    def test_controls_of_random_states(self, seed, stack, dim, eps):
        """coefficients then choose, at eps = 0 and eps > 0, with a diagonal state among them."""
        rng = np.random.default_rng(seed)
        p, h1 = random_system(rng, dim)
        law = QuadraticLaw(p, h1, ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=eps))
        rho = random_stack(rng, dim, stack)
        rho[0] = np.diag(rho[0].diagonal())
        assert outcome(lambda: law.controls(rho)) == outcome(
            lambda: choose_plain(law, *coefficients_plain(law, rho)))
        assert outcome(lambda: law.coefficients(rho)) == outcome(
            lambda: coefficients_plain(law, rho))

    def test_complex_coefficients_are_refused_alike(self):
        rng = np.random.default_rng(4)
        p, h1 = random_system(rng, 4)
        law = QuadraticLaw(p, h1, ControllerConfig(kind="quadratic", epsilon=1.0))
        rho = random_stack(rng, 4, 5)
        rho[3] = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = outcome(lambda: law.coefficients(rho))
        assert got[:2] == ("raised", ValueError)
        assert got == outcome(lambda: coefficients_plain(law, rho))


class TestSampleAndCollapse:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, stack=STACKS, dim=st.integers(2, 8), m=st.integers(2, 4),
           dead=st.booleans())
    def test_random_stacks(self, seed, stack, dim, m, dead):
        """Random uniforms, and uniforms exactly on a cumulative probability."""
        rng = np.random.default_rng(seed)
        meas = (dead_branch_measurement if dead else random_measurement)(rng, m, dim)
        rho = random_stack(rng, dim, stack)
        if dead:
            rho[0] = np.diag(np.eye(dim)[0]).astype(complex)
        p = probabilities(meas, rho)
        x = rng.random(stack)
        q = np.maximum(p, 0.0)
        cdf = np.cumsum(q / q.sum(axis=-1)[:, None], axis=-1)
        on_cdf = rng.random(stack) < 0.3
        x[on_cdf] = cdf[on_cdf, rng.integers(0, m, size=stack)[on_cdf]]
        x = np.minimum(x, np.nextafter(1.0, 0.0))
        assert outcome(lambda: sample_and_collapse(meas, rho, p, x)) == outcome(
            lambda: sample_and_collapse_plain(meas, rho, p, x))

    def test_nan_and_impossible_rows_are_refused_alike(self):
        """A NaN probability, and a drawn outcome below or exactly at P_FLOOR."""
        rng = np.random.default_rng(8)
        meas = random_measurement(rng, 3, 4)
        rho = random_stack(rng, 4, 5)
        p = probabilities(meas, rho)
        nan = p.copy()
        nan[2, 1] = np.nan
        tiny, floor = p.copy(), p.copy()
        tiny[4] = 1e-13, 1.0 - 1e-13, 0.0
        floor[4] = P_FLOOR, 1.0 - P_FLOOR, 0.0
        x = np.where(np.arange(5) == 4, 0.0, rng.random(5))
        for probs, error in ((nan, ValueError), (tiny, RuntimeError), (floor, RuntimeError)):
            got = outcome(lambda: sample_and_collapse(meas, rho, probs, x))
            assert got[0] == "raised" and issubclass(got[1], error)
            assert got == outcome(lambda: sample_and_collapse_plain(meas, rho, probs, x))


class TestConjugateStack:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, stack=STACKS, dim=st.integers(2, 8))
    def test_random_stacks(self, seed, stack, dim):
        """Random controls among the edge controls, on random (not only density) matrices."""
        rng = np.random.default_rng(seed)
        prop = HermitianPropagator(random_hermitian(rng, dim))
        rho = rng.normal(size=(stack, dim, dim)) + 1j * rng.normal(size=(stack, dim, dim))
        u = rng.normal(size=stack)
        edge = rng.random(stack) < 0.3
        u[edge] = rng.choice(EDGES[:-1], edge.sum())
        assert outcome(lambda: prop.conjugate_stack(rho, u)) == outcome(
            lambda: conjugate_stack_plain(prop, rho, u))


class TestLinearControls:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, stack=STACKS, dim=st.integers(2, 8))
    def test_random_stacks(self, seed, stack, dim):
        """A diagonal state, whose trace vanishes, among random states."""
        rng = np.random.default_rng(seed)
        p, h1 = random_system(rng, dim)
        law = LinearLaw(p, h1, 0.05)
        rho = random_stack(rng, dim, stack)
        rho[0] = np.diag(rho[0].diagonal())
        assert outcome(lambda: law.controls(rho)) == outcome(
            lambda: linear_controls_plain(law, rho))

    def test_complex_control_is_refused_alike(self):
        rng = np.random.default_rng(2)
        p, h1 = random_system(rng, 3)
        law = LinearLaw(p, h1, 0.05)
        rho = random_stack(rng, 3, 5)
        rho[1] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        got = outcome(lambda: law.controls(rho))
        assert got[:2] == ("raised", ValueError)
        assert got == outcome(lambda: linear_controls_plain(law, rho))


class TestExactMinimize:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, stack=STACKS, dim=st.integers(2, 6), m=st.integers(2, 3),
           eps=st.sampled_from([0.0, 2.0]), dead=st.booleans(), u_bar=st.sampled_from([0.1, 3.0]))
    def test_random_stacks(self, seed, stack, dim, m, eps, dead, u_bar):
        """With a NaN row, and with a branch of probability exactly 0 when dead.

        At u_bar = 3 the grid brackets are wide, so that the Newton steps
        often use all NEWTON_STEPS and end away from a fixed point.
        """
        rng = np.random.default_rng(seed)
        p, h1 = random_system(rng, dim)
        meas = (dead_branch_measurement if dead else random_measurement)(rng, m, dim)
        law = ExactMinLaw(p, h1, meas, ControllerConfig(kind="exact-min", u_bar=u_bar,
                                                        epsilon=eps))
        rho = random_stack(rng, dim, stack)
        if dead:
            rho[0] = np.diag(np.eye(dim)[0]).astype(complex)
        rho[-1, 0, 0] = np.nan
        assert outcome(lambda: law.minimize(rho)) == outcome(lambda: minimize_plain(law, rho))

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, stack=STACKS, dim=st.integers(2, 6), m=st.integers(2, 3),
           eps=st.sampled_from([0.0, 2.0]))
    def test_a_branch_below_the_floor(self, seed, stack, dim, m, eps):
        """At |0><0| outcome 0 has 0 < p_0 = 1e-13 <= P_FLOOR.

        The sigma term takes that branch in, through D * rho; at eps > 0 its
        weight -eps / (2 p_0) is 0, as for a dead branch.
        """
        rng = np.random.default_rng(seed)
        p, h1 = random_system(rng, dim)
        meas = dead_branch_measurement(rng, m, dim, floor=1e-13)
        law = ExactMinLaw(p, h1, meas, ControllerConfig(kind="exact-min", epsilon=eps))
        rho = random_stack(rng, dim, stack)
        rho[0] = np.diag(np.eye(dim)[0]).astype(complex)
        assert 0.0 < probabilities(meas, rho[:1])[0, 0] <= P_FLOOR
        assert outcome(lambda: law.minimize(rho)) == outcome(lambda: minimize_plain(law, rho))
