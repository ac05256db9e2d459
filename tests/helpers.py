"""Shared test oracles: central finite differences, independent of the
library, and a GRU step composed from the autodiff primitives."""

import numpy as np

from skipgru import autodiff as ad


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at matrix x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric):
    """Worst-coordinate relative error with a unit floor in the denominator."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom))


def composed_gru_step(x, o_prev, w_ux, w_us, w_rx, w_rs, w_x, w_s, b_u, b_r, b_s):
    """One GRU step built node by node from primitives: the fused ``ad.gru`` oracle."""
    u = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w_ux), b_u), ad.matmul(o_prev, w_us)))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w_rx), b_r), ad.matmul(o_prev, w_rs)))
    s = ad.tanh(ad.add(ad.add(ad.matmul(x, w_x), b_s),
                       ad.matmul(ad.hadamard(r, o_prev), w_s)))
    ones = ad.constant(np.ones(u.shape))
    return ad.add(ad.hadamard(ad.sub(ones, u), o_prev), ad.hadamard(u, s))
