import numpy as np
import pytest

from qheine.errors import DegenerateCurve
from qheine.geomtest import ConvexityReport, CurveMap, _cyclic_sign_changes
from qheine.gfrac import hypothesis_check
from qheine.qcore import ParamSet


@pytest.fixture
def p_bc():
    """Parameter set satisfying the SHIFT_BC mapping hypotheses."""
    return ParamSet(0.9, 0.7, 0.6, 0.8)


@pytest.fixture
def p_a():
    """Parameter set satisfying the SHIFT_A / SHIFT_ALL hypotheses."""
    return ParamSet(0.99, 0.998, 0.98, 0.9)


@pytest.fixture
def p_t1():
    """Parameter set on the T1 close-to-convexity route (T1 = 0.25)."""
    return ParamSet(0.5, 0.5, 0.2, 0.5)


def sample_params(rng, n, q_max=0.95):
    """n ParamSets with a,b,c in [0, 0.95] and q in [0.1, q_max]."""
    out = []
    while len(out) < n:
        a, b, c = rng.uniform(0.0, 0.95, 3)
        q = rng.uniform(0.1, q_max)
        out.append(ParamSet(float(a), float(b), float(c), float(q)))
    return out


def sample_hypothesis_passing(rng, n, variant, q_max=0.95):
    """n ParamSets passing the given variant's hypotheses."""
    out = []
    while len(out) < n:
        a, b, c = rng.uniform(0.0, 0.95, 3)
        q = rng.uniform(0.1, q_max)
        p = ParamSet(float(a), float(b), float(c), float(q))
        if hypothesis_check(variant, p).passed:
            out.append(p)
    return out


def _one_side(r):
    return 0.0, 0, np.ones(1), 1.0


def identity_map():
    """z -> z as a curve map: both sides are the constant 1."""
    return CurveMap("identity", _one_side, _one_side)


def full_convexity_check(curve, tol=1e-9):
    """Full convexity via the discrete cross product of successive edges.

    Zero sign changes of (w_{k+1}-w_k) x (w_{k+2}-w_{k+1}) means the
    sampled curve never changes turning direction, i.e. is convex.
    """
    w = curve.samples
    u = np.roll(w, -1) - w
    v = np.roll(u, -1)
    cross = u.real * v.imag - u.imag * v.real
    mx = float(np.abs(cross).max())
    if mx == 0.0:
        raise DegenerateCurve("curve has no turning; cross products all vanish")
    changes = _cyclic_sign_changes(cross, tol * mx)
    return ConvexityReport(changes == 0, changes)


def sample_disk(rng, n, radius=0.8):
    """n points uniform in |z| <= radius."""
    r = radius * np.sqrt(rng.uniform(size=n))
    th = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return r * np.exp(1j * th)
