"""Position-space evaluation of the 2x2 damped vacuum-projector kernel.

The kernel at separation u = x - y is

    K(u) = (1/4pi) * [[F0 + F1, -Fm], [-Fm, F0 - F1]],

built from three scalar momentum integrals of the damped symbol:

    F0(u)  = int exp(-eps*omega(k) + i k u) dk              (real, even)
    F1(u)  = int (k/omega) exp(-eps*omega + i k u) dk       (imaginary, odd)
    Fm(u)  = m int (1/omega) exp(-eps*omega + i k u) dk     (real, even)

The closed form is written once, in kernel_blocks: diag(1/(2pi(eps -+ i u)))
at mass 0, and at mass > 0 the modified Bessel functions

    F0 = 2 m eps K1(m r)/r,  Fm = 2 m K0(m r),  F1 = 2 i m u K1(m r)/r,

with r = sqrt(eps^2 + u^2). The test suite checks the closed form against
a direct oscillatory quadrature of the three integrals (tests/oracle.py).
"""

from __future__ import annotations

import numpy as np
from scipy.special import k0 as _bessel_k0, k1 as _bessel_k1

from .dirac_symbols import PhysicalParams
from .errors import ConvergenceError


def massive_scalar_integrals(mass: float, epsilon: float, u):
    """Vectorized (F0, Im F1, Fm) via modified Bessel functions, mass > 0.

    Raises ConvergenceError if the Bessel evaluation leaves the finite range
    (m*r overflow/underflow producing non-finite values).
    """
    if not mass > 0:
        raise ValueError("massive_scalar_integrals requires mass > 0")
    u_arr = np.asarray(u, dtype=float)
    r = np.hypot(epsilon, u_arr)
    z = mass * r
    bk1 = _bessel_k1(z)
    bk0 = _bessel_k0(z)
    F0 = 2.0 * mass * epsilon * bk1 / r
    F1_imag = 2.0 * mass * u_arr * bk1 / r
    Fm = 2.0 * mass * bk0
    for name, arr in (("F0", F0), ("F1", F1_imag), ("Fm", Fm)):
        if not np.all(np.isfinite(arr)):
            raise ConvergenceError(
                f"Bessel evaluation of {name} left the finite range "
                f"(mass={mass}, epsilon={epsilon})"
            )
    return F0, F1_imag, Fm


def kernel_blocks(params: PhysicalParams, u):
    """Closed-form kernel blocks (K11, K12) at separations u.

    K(u) = [[K11, K12], [K12, conj(K11)]] with K11 complex and K12 real,
    both of the shape of u; K12 is the scalar 0.0 at mass 0.
    """
    u_arr = np.asarray(u, dtype=float)
    if params.mass == 0.0:
        return 1.0 / (2.0 * np.pi * (params.epsilon - 1j * u_arr)), 0.0
    F0, F1_imag, Fm = massive_scalar_integrals(params.mass, params.epsilon, u_arr)
    inv4pi = 1.0 / (4.0 * np.pi)
    K11 = np.empty(u_arr.shape, dtype=complex)
    K11.real = inv4pi * F0
    K11.imag = inv4pi * F1_imag
    return K11, -inv4pi * Fm
