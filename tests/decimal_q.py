"""The Gaussian tail Q(x) to 60 significant digits, in stdlib ``decimal`` alone.

A reference for the float Q-function and the closed forms built on it,
independent of scipy and of the platform's libm.  ``Q(x) = erfc(x/sqrt 2)/2``
with

* erf by its Taylor series, ``2/sqrt(pi) * sum (-1)^n z^(2n+1)/(n!(2n+1))``,
  for ``0 < z < 3``, and ``erf(0) = 0`` exactly;
* erfc by its continued fraction, ``exp(-z^2)/sqrt(pi)`` times
  ``1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...))))``, evaluated by the modified
  Lentz method, for ``z >= 3``;
* ``Q(x) = 1 - Q(-x)`` for ``x < 0``, and ``erfc(z) = 2 - erfc(-z)`` for
  ``z < 0``.

On top of Q, :func:`pam_ber` evaluates the weight form of the BER of
unit-energy M-PAM, the reference for ``pamber.ber_from_coefficients``, and
:func:`interval_pber` the interval form of a PBER at any boundaries and
region bits, the reference for ``pamber.pber_general``.

Intermediate results carry ``GUARD`` extra digits: the alternating series
cancels about 3 digits at z = 3, and ``1 - erf`` about 5 more.
"""

from __future__ import annotations

from decimal import Decimal, getcontext, localcontext

DIGITS = 60
GUARD = 20
SERIES_LIMIT = 3  # erf series below this z, continued fraction from it on


def _pi() -> Decimal:
    """pi to the current precision (the recipe of the ``decimal`` docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def erf_series(z: Decimal) -> Decimal:
    """erf(z) by its Taylor series, at the current precision."""
    if z == 0:
        return Decimal(0)
    eps = Decimal(10) ** -(getcontext().prec + 2)
    z2 = z * z
    power = z  # (-1)^n z^(2n+1) / n!
    total = z
    n = 0
    while True:
        n += 1
        power = -power * z2 / n
        term = power / (2 * n + 1)
        total += term
        if abs(term) < eps * abs(total):
            return 2 * total / _pi().sqrt()


def erfc_fraction(z: Decimal) -> Decimal:
    """erfc(z) by its continued fraction (modified Lentz), for z > 0."""
    eps = Decimal(10) ** -(getcontext().prec + 2)
    tiny = Decimal(10) ** -(4 * getcontext().prec)
    f = c = tiny  # b0 = 0
    d = Decimal(0)
    k = 0
    while True:
        k += 1
        a = Decimal(1) if k == 1 else Decimal(k - 1) / 2
        d = z + a * d
        c = z + a / c
        d = 1 / (d if d != 0 else tiny)
        if c == 0:
            c = tiny
        delta = c * d
        f *= delta
        if abs(delta - 1) < eps:
            return (-z * z).exp() / _pi().sqrt() * f


def erfc(z) -> Decimal:
    """erfc(z) to ``DIGITS`` significant digits, for a float or Decimal z."""
    z = Decimal(z)
    with localcontext() as ctx:
        ctx.prec = DIGITS + GUARD
        if z < 0:
            value = 2 - erfc(-z)
        elif z >= SERIES_LIMIT:
            value = erfc_fraction(z)
        else:
            value = 1 - erf_series(z)
        ctx.prec = DIGITS
        return +value


def q(x) -> Decimal:
    """Q(x) = Pr{N(0,1) > x} to ``DIGITS`` significant digits, for a float or Decimal x."""
    x = Decimal(x)
    if x < 0:
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return 1 - q(-x)
    with localcontext() as ctx:
        ctx.prec = DIGITS + GUARD
        z = x / Decimal(2).sqrt()
        value = erfc(z) / 2
        ctx.prec = DIGITS
        return +value


def pam_ber(coefficients, m_points: int, snr_db) -> Decimal:
    """``sum_n c[n-1] * Q((2n-1) * d * sqrt(2*snr)) / M`` to ``DIGITS`` digits.

    The weight form of the BER of unit-energy M-PAM with midpoint
    boundaries: ``c`` is an integer weight vector of length M-1, ``d =
    sqrt(3/(M^2-1))`` the half spacing and ``snr = 10^(snr_db/10)``, all
    in decimal.  Divide by m for a labeling's average over its bits.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS + GUARD
        d = (Decimal(3) / (m_points * m_points - 1)).sqrt()
        scale = d * (2 * Decimal(10) ** (Decimal(snr_db) / 10)).sqrt()
        total = sum(int(c) * q((2 * n - 1) * scale) for n, c in enumerate(coefficients, 1))
        value = total / m_points
        ctx.prec = DIGITS
        return +value


def interval_pber(points, betas, region_bits, bits, snr_db) -> Decimal:
    """``(1/M) * sum_{i,k} [p_i != b_k] * Pr{beta_k < y < beta_{k+1} | s_i}`` to ``DIGITS`` digits.

    The interval form of the PBER of a sign demodulator, the reference for
    ``pamber.pber_general`` that does not telescope over the boundaries:
    ``bits`` holds the pattern bit p_i of each of the M ascending
    ``points`` s_i; the K ascending ``betas`` cut the line into K+1
    regions, from ``beta_0 = -inf`` to ``beta_{K+1} = +inf``, and region
    k decides ``region_bits[k]``.  ``y - s_i`` is Gaussian with variance
    ``1/(2*snr)``, ``snr = 10^(snr_db/10)`` in decimal.  Floats are read
    exactly.  Each region probability is a difference of the two tails on
    the side of the region away from s_i, or one minus both tails when
    the region holds s_i, so no tail near 1 is subtracted.
    """
    if len(points) != len(bits) or len(region_bits) != len(betas) + 1:
        raise ValueError("need one bit per point and one region bit more than boundaries")
    with localcontext() as ctx:
        ctx.prec = DIGITS + GUARD
        scale = (2 * Decimal(10) ** (Decimal(snr_db) / 10)).sqrt()
        cuts = [None] + [Decimal(b) for b in betas] + [None]  # None: an infinite end
        tails = {}

        def tail(x):  # Q(x), with Q(+inf) = 0; equally spaced points repeat arguments
            if x is None:
                return Decimal(0)
            if x not in tails:
                tails[x] = q(x)
            return tails[x]

        total = Decimal(0)
        for s, p in zip(points, bits):
            s = Decimal(s)
            for k, b in enumerate(region_bits):
                if int(b) == int(p):
                    continue
                lo = None if cuts[k] is None else (cuts[k] - s) * scale
                hi = None if cuts[k + 1] is None else (cuts[k + 1] - s) * scale
                if lo is not None and lo >= 0:
                    total += tail(lo) - tail(hi)
                elif hi is not None and hi <= 0:
                    total += tail(-hi) - tail(None if lo is None else -lo)
                else:
                    total += 1 - tail(None if lo is None else -lo) - tail(hi)
        value = total / len(points)
        ctx.prec = DIGITS
        return +value
