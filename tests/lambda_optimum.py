"""The numerical lambda optimum of the closed-form bound, a test oracle.

The package carries the analytic optimum (`BoundConstants.xi`, and `v_lr`
from it); this module finds it numerically with scipy.optimize, so the tests
can check the rate algebra against an independent route.
"""

from __future__ import annotations

import math

from scipy.optimize import minimize_scalar


def optimize_lambda(consts) -> tuple:
    """Minimize the slope e^{lam/xi}/lam of the closed form over lam > 0.

    Returns (lam_star, v_min); analytically lam_star = xi and v_min equals
    BoundConstants.v_lr.
    """
    xi = consts.xi

    def slope(lam: float) -> float:
        return math.exp(lam / xi) / lam

    res = minimize_scalar(
        slope,
        bounds=(xi * 1e-3, xi * 1e3),
        method="bounded",
        options={"xatol": xi * 1e-9},
    )
    lam_star = float(res.x)
    v_min = 2.0 * consts.gamma * math.sqrt(
        consts.h0 * consts.h1 * consts.K
    ) * slope(lam_star)
    return lam_star, v_min
