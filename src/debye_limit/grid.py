"""Periodic spectral grid, field container and Fourier calculus.

Everything downstream (Poisson solves, flow integration, norms and
diagnostics) is built on the operations here: real-FFT differentiation,
trapezoid quadrature (exact for the periodic grid), Parseval-based
Sobolev norms and 2/3-rule dealiasing.

Conventions
-----------
* The domain is the periodic unit interval ``[0, 1)`` sampled at
  ``x_i = i / n_points``; a domain length is redundant with eps.
* Fields are real, so every kernel works on the half spectrum of the
  real FFT: ``rfft`` is unnormalized and ``irfft`` carries the ``1/n``
  factor (the numpy default). Mode ``j`` in ``0..n/2`` has wavenumber
  ``k_j = 2*pi*j``; mode ``n/2`` is the Nyquist mode.
* Each interior mode stands for itself and its conjugate partner, so
  Parseval sums count it twice and the mean and Nyquist modes once.
  The Nyquist mode has no signed partner: odd derivatives drop it.
* The 2/3 rule keeps modes ``j <= n/3``.
* Symbols, weights and other per-grid tables are built once, on first use.
* Integrals are the trapezoid rule, which on a uniform periodic grid
  is just ``mean(values)`` and integrates every resolved
  Fourier mode exactly.
* The private value kernels transform and reduce over the last axis,
  so each takes one field's values or a ``(T, N)`` stack of them and
  gives every row of a stack the same bits as a single call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Sobolev orders above this are meaningless at the resolutions we run;
# derivative orders are capped at twice this value.
MAX_SOBOLEV_ORDER = 8
MAX_DERIVATIVE_ORDER = 2 * MAX_SOBOLEV_ORDER


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the unit interval ``[0, 1)``.

    Parameters
    ----------
    n_points : int
        Number of collocation points. Must be a power of two and at
        least 32 so the 2/3 dealiasing rule leaves usable bandwidth.

    Attributes
    ----------
    x : sample points ``i / n_points``.
    k : half-spectrum wavenumbers ``2*pi*j``, ``j = 0..n_points/2``.
    keep : 2/3-rule mask ``j <= n_points/3`` over the half spectrum.
    """

    n_points: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    keep: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_points
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_points must be an integer, got {n!r}")
        n = int(n)
        if n < 32 or (n & (n - 1)) != 0:
            raise ValueError(
                f"n_points must be a power of two >= 32, got {n}"
            )
        object.__setattr__(self, "n_points", n)
        try:
            modes = np.arange(n // 2 + 1)
            object.__setattr__(self, "x", np.arange(n) * self.dx)
            object.__setattr__(self, "k", 2.0 * np.pi * modes)
            object.__setattr__(self, "keep", modes <= n / 3.0)
        except MemoryError:
            raise ValueError(f"n_points = {n} is too large: its grid tables "
                             "do not fit in memory") from None
        object.__setattr__(self, "_cache", {})
        for arr in (self.x, self.k, self.keep):
            arr.flags.writeable = False

    @property
    def dx(self) -> float:
        return 1.0 / self.n_points

    def _cached(self, key, build):
        # no key holds eps and orders are capped (MAX_*_ORDER), so a grid
        # caches a few dozen values; arrays are frozen here, others freeze
        # their own
        value = self._cache.get(key)
        if value is None:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._cache[key] = value
        return value

    def derivative_symbol(self, order: int) -> np.ndarray:
        """Half-spectrum symbol ``(i k)^order``, Nyquist dropped if odd."""
        def build():
            if order % 2 == 0:
                return (-1.0) ** (order // 2) * self.k**order
            sym = (-1.0) ** (order // 2) * 1j * self.k**order
            sym[-1] = 0.0
            return sym
        return self._cached(("d", order), build)

    def hs_weight(self, s: int) -> np.ndarray:
        """Parseval weight: ``hs_norm**2 = sum(weight * |rfft(f)|**2)``.

        Sums ``k^(2a)`` over ``a = 0..s`` (Nyquist left out of the odd
        ``a``, like the odd derivatives), counts interior modes twice
        and folds in ``1 / n_points**2``.
        """
        def build():
            k2 = self.k**2
            weight = np.zeros_like(k2)
            k2a = np.ones_like(k2)
            for a in range(s + 1):
                if a % 2 == 1:
                    weight[:-1] += k2a[:-1]
                else:
                    weight += k2a
                k2a = k2a * k2
            weight[1:-1] *= 2.0
            return weight / self.n_points**2
        return self._cached(("hs", s), build)


@dataclass(frozen=True, eq=False)
class Field:
    """Immutable real-valued function sampled on a :class:`Grid`.

    Values are copied on construction and frozen, so operations always
    return new Fields rather than mutating in place.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"field has shape {vals.shape}, grid expects "
                f"({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _derivative_values(grid: Grid, values: np.ndarray, order: int) -> np.ndarray:
    """``d^order`` of the values; order 0 returns ``values`` itself, not a copy."""
    if order == 0:
        return values
    return np.fft.irfft(grid.derivative_symbol(order) * np.fft.rfft(values),
                        grid.n_points)


def _dealias_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.fft.irfft(grid.keep * np.fft.rfft(values), grid.n_points)


def _check_order(order: int, cap: int, what: str):
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {order!r}")
    if order > cap:
        raise ValueError(f"{what} {order} exceeds the supported cap {cap}")


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order.

    Differentiation multiplies Fourier coefficients by ``(i k)^order``,
    so the result of any order >= 1 has exactly zero mean.
    """
    _check_order(order, MAX_DERIVATIVE_ORDER, "derivative order")
    return Field(f.grid, _derivative_values(f.grid, f.values, order))


def _integral_values(grid: Grid, values: np.ndarray):
    """Trapezoid quadrature over the periodic unit interval (= mean)."""
    return np.add.reduce(values, axis=-1) / grid.n_points


def _l2_values(grid: Grid, values: np.ndarray):
    """sqrt of the integral of f^2."""
    return np.sqrt(np.add.reduce(values * values, axis=-1) / grid.n_points)


def _power(fhat: np.ndarray) -> np.ndarray:
    return fhat.real**2 + fhat.imag**2


def _parseval_values(power: np.ndarray, weight: np.ndarray):
    """Norm ``sqrt(sum(weight * power))`` over the last axis of a spectrum's ``_power``."""
    return np.sqrt(np.sum(weight * power, axis=-1))


def _dealiased_l2_values(grid: Grid, fhat: np.ndarray):
    """L2 norm of the dealiased field of ``rfft`` ``fhat``: Parseval over the kept modes."""
    return _parseval_values(_power(fhat), grid.keep * grid.hs_weight(0))


def _hs_norm_values(grid: Grid, values: np.ndarray, s: int):
    return _parseval_values(_power(np.fft.rfft(values)), grid.hs_weight(s))


def hs_norm(f: Field, s: int) -> float:
    """Sobolev H^s norm via Parseval.

    Equals ``sqrt(sum_{a=0}^{s} ||derivative(f, a)||_L2^2)``; computed
    directly from one real FFT so it is cheap enough for per-step monitors.
    """
    _check_order(s, MAX_SOBOLEV_ORDER, "Sobolev order")
    return float(_hs_norm_values(f.grid, f.values, s))


def dealias(f: Field) -> Field:
    """Zero all modes with ``|j| > n_points/3`` (2/3-rule). Idempotent."""
    return Field(f.grid, _dealias_values(f.grid, f.values))
