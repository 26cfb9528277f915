"""Shared test oracles."""

import numpy as np
import pytest


def _second_order_residual(cfg, flow):
    # worst violation of x'' = s*r*x by central second differences of the
    # x-block of a flow sampled on cfg.grid(); the stencil is second order, so
    # on closed-form samples the residual is about (h^2 / 12) (s*r)^2 max|x|
    m = len(flow)
    if m < 3:
        raise ValueError(f"need at least 3 samples, got {m}")
    h = cfg.step
    s, n = cfg.spec.sig.s, cfg.spec.sig.n
    x = flow[:, s:n]
    xdd = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (h * h)
    return float(np.max(np.abs(xdd - s * cfg.spec.sig.r * x[1:-1])))


@pytest.fixture
def second_order_residual():
    """The 3-point stencil residual of x'' = s*r*x, as a function of (cfg, flow)."""
    return _second_order_residual
