"""Catalog-level helper operation: the Monge-Ampere residual of a stream function."""

from __future__ import annotations

import numpy as np

__all__ = ["monge_ampere_residual"]


def monge_ampere_residual(h, b1: float, samples) -> float:
    """max |h_pp h_qq - h_pq^2 - B1| over sample points (M, 2).

    ``h`` must carry an analytic ``hessian(p, q) -> (hpp, hqq, hpq)``, as the
    stream-function presets of ``profiles`` do; raises ValueError otherwise.
    """
    hessian = getattr(h, "hessian", None)
    if hessian is None:
        raise ValueError(f"{getattr(h, 'name', h)!r} has no analytic hessian")
    samples = np.asarray(samples, dtype=float).reshape(-1, 2)
    hpp, hqq, hpq = hessian(samples[:, 0], samples[:, 1])
    res = hpp * hqq - hpq**2 - b1
    return float(np.max(np.abs(res)))
