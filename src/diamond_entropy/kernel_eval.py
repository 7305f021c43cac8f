"""Position-space evaluation of the 2x2 damped vacuum-projector kernel.

The kernel at separation u = x - y is

    K(u) = (1/4pi) * [[F0 + F1, -Fm], [-Fm, F0 - F1]],

built from three scalar momentum integrals of the damped symbol:

    F0(u)  = int exp(-eps*omega(k) + i k u) dk              (real, even)
    F1(u)  = int (k/omega) exp(-eps*omega + i k u) dk       (imaginary, odd)
    Fm(u)  = m int (1/omega) exp(-eps*omega + i k u) dk     (real, even)

The closed form is written once, in kernel_blocks, as the real parts a, b, c
of K11 = a + ib and K12 = c: diag(1/(2pi(eps -+ i u))) at mass 0, and at
mass > 0 the modified Bessel functions

    F0 = 2 m eps K1(m r)/r,  Fm = 2 m K0(m r),  F1 = 2 i m u K1(m r)/r,

with r = sqrt(eps^2 + u^2). K0 and K1 come from one vectorised power series
where m r <= 2 and from Chebyshev series of exp(z) sqrt(z) K(z) in 4/z - 1
elsewhere (the form of Cephes' k0 and k1), chosen per element, so a
separation gets the same value in any array. The test suite checks the
closed form against a direct oscillatory quadrature of the three integrals
(tests/oracle.py) and both series against scipy.special and mpmath.
"""

from __future__ import annotations

import math

import numpy as np

from .dirac_symbols import PhysicalParams
from .errors import ConvergenceError

# K0 and K1 come from their power series in w = z^2/4 up to this z
_SERIES_MAX_Z = 2.0
_SERIES_TERMS = 14
_EULER_GAMMA = 0.57721566490153286061


def _series_coefficients():
    """Highest-degree-first coefficients of I0, S0, I1 and S1 in w (A&S 9.6.13
    and 9.6.11): 1/k!^2, H_k/k!^2, 1/(k!(k+1)!) and (H_k + H_{k+1})/(k!(k+1)!),
    each one quotient of integers, so rounded once; H_k = h_k / k! are the
    harmonic numbers."""
    fact = [math.factorial(k) for k in range(_SERIES_TERMS + 1)]
    h = [sum(fact[k] // j for j in range(1, k + 1)) for k in range(_SERIES_TERMS + 1)]
    ks = range(_SERIES_TERMS - 1, -1, -1)
    return (
        tuple(1 / fact[k] ** 2 for k in ks),
        tuple(h[k] / fact[k] ** 3 for k in ks),
        tuple(1 / (fact[k] * fact[k + 1]) for k in ks),
        tuple(((k + 1) * h[k] + h[k + 1]) / (fact[k] * fact[k + 1] ** 2) for k in ks),
    )


_I0, _S0, _I1, _S1 = _series_coefficients()


def _horner(coefficients, w, out):
    out.fill(coefficients[0])
    for c in coefficients[1:]:
        out *= w
        out += c
    return out


def _k0_k1_series(z):
    """K0(z) = S0(w) - (ln(z/2) + gamma) I0(w) and
    K1(z) = 1/z + (z/2) [(ln(z/2) + gamma) I1(w) - S1(w)/2], w = z^2/4.
    Within 1e-14 relative of K0 and K1 for 0 < z <= 2. At most five arrays
    of the shape of z are alive besides z."""
    w = 0.25 * z * z
    log_term = np.log(0.5 * z)
    log_term += _EULER_GAMMA
    k0 = _horner(_S0, w, np.empty_like(z))
    term = _horner(_I0, w, np.empty_like(z))
    term *= log_term
    k0 -= term
    k1 = _horner(_I1, w, np.empty_like(z))
    k1 *= log_term
    _horner(_S1, w, term)
    term *= 0.5
    k1 -= term
    del w, log_term
    k1 *= np.multiply(z, 0.5, out=term)
    k1 += np.divide(1.0, z, out=term)
    return k0, k1


# Chebyshev coefficients of exp(z) sqrt(z) K0(z) and exp(z) sqrt(z) K1(z) in
# t = 4/z - 1 for z > 2, highest degree first, the constant term in full (the
# form of Cephes' k0.c and k1.c): interpolated at Chebyshev points from
# 40-digit values of mpmath.besselk, truncated where the terms fall below
# 1e-17, and each rounded once to double (the test suite recomputes them)
_K0_FAR = (
    5.3004337711773354e-18, -1.6475805939842632e-17, 5.2103917776435543e-17,
    -1.6782311257549006e-16, 5.5120559994043335e-16, -1.848593377920907e-15,
    6.340076476276646e-15, -2.2275133267462965e-14, 8.032890775068375e-14,
    -2.9800969231481784e-13, 1.1403405882073441e-12, -4.514597883374519e-12,
    1.8559491149549264e-11, -7.957489244477396e-11, 3.5773972814003283e-10,
    -1.6975345093890614e-09, 8.574034017414225e-09, -4.660489897687948e-08,
    2.766813639445015e-07, -1.8317555227191195e-06, 1.39498137188765e-05,
    -0.00012849549581627802, 0.0015698838857300533, -0.0314481013119645,
    2.4403030820659555,
)
_K1_FAR = (
    -5.7567444820733025e-18, 1.7940510478863572e-17, -5.689462849193648e-17,
    1.8380935752430455e-16, -6.057047270643018e-16, 2.038703166239861e-15,
    -7.0198370892147685e-15, 2.4771544242195988e-14, -8.976705182010146e-14,
    3.348419666052243e-13, -1.2891739609498229e-12, 5.139639673482343e-12,
    -2.129967838427791e-11, 9.218315187605315e-11, -4.1903547593419254e-10,
    2.0150497551970347e-09, -1.0345762465678097e-08, 5.7410841254500495e-08,
    -3.5019606030878126e-07, 2.406484947837217e-06, -1.936197974166083e-05,
    0.00019521551847135162, -0.002857816859622779, 0.10392373657681724,
    2.7206261904844427,
)


def _far_field(coefficients, z):
    """exp(-z) sum' c_k T_k(t) / sqrt(z), t = 4/z - 1, the constant term
    halved: Clenshaw's recurrence in 2t = 8/z - 2, as Cephes' chbevl. With
    _K0_FAR or _K1_FAR, K0(z) or K1(z) for z > 2, within 1e-15 relative of
    30-digit values."""
    two_t = 8.0 / z - 2.0
    b0 = np.full_like(z, coefficients[0])
    b1 = np.zeros_like(z)
    for c in coefficients[1:]:
        b0, b1, b2 = two_t * b0 - b1 + c, b0, b1
    return np.exp(-z) * (0.5 * (b0 - b2)) / np.sqrt(z)


def _bessel_k0_k1(z):
    """K0(z) and K1(z), each element from the power series where z <= 2 and
    from the Chebyshev series elsewhere, so an element's value does not
    depend on the array it is evaluated in."""
    near = z <= _SERIES_MAX_Z
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if near.all():  # the common case: no gather or scatter
            return _k0_k1_series(z)
        k0 = np.empty_like(z)
        k1 = np.empty_like(z)
        far = ~near
        k0[far] = _far_field(_K0_FAR, z[far])
        k1[far] = _far_field(_K1_FAR, z[far])
        if near.any():
            k0[near], k1[near] = _k0_k1_series(z[near])
    return k0, k1


def massive_scalar_integrals(mass: float, epsilon: float, u):
    """Vectorized (F0, Im F1, Fm) via modified Bessel functions, mass > 0.

    Raises ConvergenceError if the Bessel evaluation leaves the finite range
    (m*r overflow/underflow producing non-finite values).
    """
    if not mass > 0:
        raise ValueError("massive_scalar_integrals requires mass > 0")
    u_arr = np.asarray(u, dtype=float)
    r = np.hypot(epsilon, u_arr)
    bk0, bk1 = _bessel_k0_k1(mass * r)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
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
    """Closed-form kernel blocks at separations u as three real parts (a, b, c).

    K(u) = [[K11, K12], [K12, conj(K11)]] with K11 = a + ib and K12 = c, all
    of the shape of u but c = 0.0 at mass 0, where a + ib = 1/(2 pi (eps - iu)).
    Raises ConvergenceError at mass 0 where K11(0) = 1/(2 pi eps) overflows, as
    the Bessel evaluation does at mass > 0 when it leaves the finite range.
    """
    u_arr = np.asarray(u, dtype=float)
    if params.mass == 0.0:
        # Python float arithmetic: an overflow gives inf, with no warning
        if math.isinf(1.0 / (2.0 * math.pi * float(params.epsilon))):
            raise ConvergenceError(
                f"massless kernel 1/(2 pi epsilon) overflows (epsilon={params.epsilon})"
            )
        k11 = 1.0 / (2.0 * np.pi * (params.epsilon - 1j * u_arr))
        return k11.real, k11.imag, 0.0
    F0, F1_imag, Fm = massive_scalar_integrals(params.mass, params.epsilon, u_arr)
    inv4pi = 1.0 / (4.0 * np.pi)
    return inv4pi * F0, inv4pi * F1_imag, -inv4pi * Fm
