import numpy as np
import pytest


def central_diff_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2 * h)
    return grad


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def params64(cfg):
    """float64 copies of init_params(cfg): a forward pass on them computes in
    float64, for checks of float64 identities."""
    from amdet.model import init_params
    return {k: v.astype(np.float64) for k, v in init_params(cfg).items()}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
