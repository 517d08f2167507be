"""Closed forms of relays of linear spiral sinks with circular boundaries.

Flow i is x' = A(x - c_i) with A = [[-1/2, -1], [1, -1/2]], so
x(t) - c_i = e^{-t/2} R(t) (x(0) - c_i), where R(t) is the rotation by t.
Boundary i + 1 is the circle of radius rho_{i+1} = sqrt(0.25 - lambda_{i+1})
about c_i, the focus of the flow that enters it; boundary 0 (= boundary p)
lies about c_{p-1}. The distance to c_i falls monotonically, so from distance
r > rho the first and only hit is at t = 2 ln(r / rho), at a known point.
The return map P on boundary 0 is therefore explicit, and its fixed points
are found by bracketing and bisection. Nothing here integrates an ODE.
"""
from __future__ import annotations

import math

import numpy as np


class SpiralRelay:
    """Foci c_0..c_{p-1} of the p flows and level offsets lambda_0..lambda_p
    (lambda_p = lambda_0) of the chain boundaries."""

    def __init__(self, foci, levels):
        self.foci = [np.asarray(c, float) for c in foci]
        self.rho = [math.sqrt(0.25 - float(lv)) for lv in levels]
        assert len(self.rho) == len(self.foci) + 1
        assert self.rho[0] == self.rho[-1]

    @property
    def p(self) -> int:
        return len(self.foci)

    def margins(self) -> list[float]:
        """|grad f . V| at the crossing of boundary i + 1: with
        f = 0.25 - |x - c_i|^2 and V = A(x - c_i) it is |x - c_i|^2 = rho^2."""
        return [rho * rho for rho in self.rho[1:]]

    def leg(self, i: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        """First hit of boundary i + 1 from x under flow i: (time, point)."""
        d = x - self.foci[i]
        r = math.hypot(d[0], d[1])
        rho = self.rho[i + 1]
        assert r > rho, "start inside the target circle"
        t = 2.0 * math.log(r / rho)
        cos_t, sin_t = math.cos(t), math.sin(t)
        shrink = rho / r
        return t, self.foci[i] + shrink * np.array(
            [cos_t * d[0] - sin_t * d[1], sin_t * d[0] + cos_t * d[1]])

    def point(self, theta: float) -> np.ndarray:
        """The boundary-0 point at angle theta about its center c_{p-1}."""
        return self.foci[-1] + self.rho[0] * np.array(
            [math.cos(theta), math.sin(theta)])

    def chain(self, theta: float) -> tuple[np.ndarray, list[float], np.ndarray]:
        """Start on boundary 0, the p leg durations, and the end point."""
        x0 = x = self.point(theta)
        durations = []
        for i in range(self.p):
            t, x = self.leg(i, x)
            durations.append(t)
        return x0, durations, x

    def displacement(self, theta: float) -> float:
        """P(theta) - theta, wrapped to (-pi, pi]."""
        end = self.chain(theta)[2] - self.foci[-1]
        delta = math.atan2(end[1], end[0]) - theta
        return delta - 2.0 * math.pi * math.ceil((delta - math.pi) / (2.0 * math.pi))

    def fixed_points(self, samples: int = 720) -> list[tuple[np.ndarray, list[float]]]:
        """(start, durations) of every fixed point of P, bisected to the last
        bit from the sign changes of the displacement on a uniform grid (the
        wrap's jump at |delta| = pi is not a bracket)."""
        thetas = np.linspace(-math.pi, math.pi, samples + 1)
        deltas = [self.displacement(float(th)) for th in thetas]
        found = []
        for a, b, da, db in zip(thetas[:-1], thetas[1:], deltas[:-1], deltas[1:]):
            if da == 0.0:
                found.append(float(a))
            elif da * db < 0.0 and max(abs(da), abs(db)) < 1.0:
                a, b = float(a), float(b)
                while True:
                    mid = 0.5 * (a + b)
                    if mid in (a, b):
                        break
                    if (self.displacement(mid) > 0.0) == (da > 0.0):
                        a = mid
                    else:
                        b = mid
                found.append(a)
        return [self.chain(th)[:2] for th in found]
