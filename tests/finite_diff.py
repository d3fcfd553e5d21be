"""Finite-difference helper shared by the gradient tests."""
import numpy as np


def fd_grad(f, x, eps=1e-5):
    """Central finite-difference gradient of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return g
