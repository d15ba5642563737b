"""Spatial order of the discrete Lie derivative, against the exact one.

lie_increment(omega) / dt at a small dt does not depend on dt: it is
the scheme's discrete Lie derivative. Each case compares it with the
exact Lie derivative of a smooth form, integrated by discretize's own
rule, and measures the relative max error at 32^2, 64^2 and 128^2.

On the Rudman vortex every scheme is at most second order, whatever
its reconstruction: the 1-form contraction takes the velocity at a
vertex as the mean of two face fluxes, and the 2-form contraction
multiplies the face average of the form by that of the flux. On a
constant flux both are exact, and the WENO rows show the
reconstruction's own order, up to where discretize's 3-point Gauss
rule caps what the check can see (rates 5.0 to 9.5 measured).

The derivatives are written out by hand. Under the flow (u, w), for a
0-form f it is u f_x + w f_y; for a 1-form f dx + g dy, with
a = f u + g w and c = g_x - f_y, it is (a_x - w c) dx + (a_y + u c) dy;
for a 2-form rho it is (rho u)_x + (rho w)_y.
"""

import numpy as np
import pytest

from lieform.advection import AdvectionConfig, lie_increment
from lieform.forms import AnalyticForm, discretize
from lieform.grid import build_complex
from lieform.reconstruct import SchemeKind
from lieform.velocity import (ConstantVelocity, discretize_velocity,
                              rudman_vortex)

TAU = 2.0 * np.pi


def _s(t):
    return np.sin(TAU * t)


def _c(t):
    return np.cos(TAU * t)


# Each component of a form as (value, d/dx, d/dy): the scenarios'
# smooth0 0-form and smooth1 1-form, and a density that varies along
# both axes in unequal ways.
_SUM = (lambda x, y: _s(x) + _s(y), lambda x, y: TAU * _c(x),
        lambda x, y: TAU * _c(y))
FORMS = {
    0: ((lambda x, y: _s(x) * _s(y), lambda x, y: TAU * _c(x) * _s(y),
         lambda x, y: TAU * _s(x) * _c(y)),),
    1: (_SUM, _SUM),
    2: ((lambda x, y: np.exp(_s(x)) * (1.0 + 0.5 * _c(y)),
         lambda x, y: TAU * _c(x) * np.exp(_s(x)) * (1.0 + 0.5 * _c(y)),
         lambda x, y: -np.pi * np.exp(_s(x)) * _s(y)),),
}


def _vortex(x, y):
    """(u, w, u_x, u_y, w_x, w_y) of rudman_vortex().

    psi = sin^2(pi x) sin^2(pi y) / pi, u = -psi_y and w = psi_x.
    """
    sx2, sy2 = np.sin(np.pi * x) ** 2, np.sin(np.pi * y) ** 2
    ux = -np.pi * _s(x) * _s(y)
    return (-sx2 * _s(y), _s(x) * sy2, ux, -TAU * sx2 * _c(y),
            TAU * _c(x) * sy2, -ux)


FLOWS = {
    "vortex": (rudman_vortex(), _vortex),
    "constant": (ConstantVelocity(1.0, 1.0),
                 lambda x, y: (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
}


def _lie_derivative(degree, flow):
    """The exact Lie derivative of FORMS[degree] along flow."""
    def at(x, y):
        u, w, ux, uy, wx, wy = flow(x, y)
        (f, fx, fy), *rest = [[part(x, y) for part in component]
                              for component in FORMS[degree]]
        if degree == 0:
            return (u * fx + w * fy,)
        if degree == 2:
            return (fx * u + f * ux + fy * w + f * wy,)
        (g, gx, gy), = rest
        c = gx - fy
        return (fx * u + f * ux + gx * w + g * wx - w * c,
                fy * u + f * uy + gy * w + g * wy + u * c)

    return AnalyticForm(degree, tuple(
        lambda x, y, k=k: at(x, y)[k] for k in range(len(FORMS[degree]))))


def _rates(scheme, degree, flow):
    """The errors at 32^2, 64^2 and 128^2 and the rates between them.

    An error is the relative max error of lie_increment / dt, at
    dt = 1e-3 h, against the exact derivative.
    """
    field, derivatives = FLOWS[flow]
    omega = AnalyticForm(degree, tuple(
        value for value, _, _ in FORMS[degree]))
    exact = _lie_derivative(degree, derivatives)
    errors = []
    for n in (32, 64, 128):
        grid = build_complex(n, n, 1.0 / n)
        dt = 1e-3 * grid.h
        got = lie_increment(discretize(omega, grid),
                            discretize_velocity(field, grid),
                            AdvectionConfig(dt, 1, scheme)).values / dt
        want = discretize(exact, grid).values
        errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return errors, [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_order_in_the_vortex(scheme, degree):
    # Measured on 64 -> 128: 1.00 for upwind, 2.00 for both WENO
    # schemes, every degree; 32 -> 64 reads 0.99 to 1.06 and 1.99 to
    # 2.11.
    errors, rates = _rates(scheme, degree, "vortex")
    bound = 0.9 if scheme is SchemeKind.UPWIND else 1.9
    assert min(rates) >= bound, (errors, rates)


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("scheme", [SchemeKind.WENO5, SchemeKind.WENO7])
def test_weno_order_on_a_constant_flux(scheme, degree):
    # Measured: 5.00 to 9.52 on 64 -> 128 and 5.00 to 6.97 on 32 -> 64.
    errors, rates = _rates(scheme, degree, "constant")
    assert min(rates) >= 4.5, (errors, rates)
