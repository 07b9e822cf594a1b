"""Lagrangian model functions f(s) and their derivatives.

Every model is a weak-field deformation of Maxwell theory: f(0) = 0 and
f'(0) = 1, so all constitutive relations reduce to E = D, H = B as the
field strengths (or the deformation parameters) go to zero.

Supported kinds and domains of the invariant s:

========== =============================== =======================
kind        f(s)                            domain
========== =============================== =======================
classical   (1 - sqrt(1 - 2 beta s))/beta   2 beta s < 1
logarithmic -ln(1 - beta s)/beta            beta s < 1
exponential (e^{beta s} - 1)/beta           all reals
fractional  ((1 + beta s/p)^p - 1)/beta     all reals (integer p);
                                            1 + beta s/p > 0 otherwise
quadratic   s + alpha s^2                   all reals
custom      user-supplied triple            user-supplied bounds
========== =============================== =======================

ModelParams is frozen and hashable apart from custom callables; instances are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation

CLASSICAL = "classical"
LOGARITHMIC = "logarithmic"
EXPONENTIAL = "exponential"
FRACTIONAL_POWER = "fractional_power"
QUADRATIC = "quadratic"
CUSTOM = "custom"

KINDS = (CLASSICAL, LOGARITHMIC, EXPONENTIAL, FRACTIONAL_POWER, QUADRATIC, CUSTOM)

_FD_CHECK_POINTS = (-0.35, -0.1, 0.0, 0.07, 0.25)


def _is_integral(p: float) -> bool:
    return abs(p - round(p)) <= 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Model kind plus its parameters.

    beta is the Born parameter (> 0, unused by the quadratic kind), kappa >= 0
    the axionic coupling entering the invariant s = (E^2 - B^2)/2
    + (kappa^2/2)(E.B)^2, alpha > 0 the quadratic coefficient, p >= 1 the
    fractional power (p = 1 is Maxwell).
    """

    kind: str
    beta: float = 1.0
    kappa: float = 0.0
    alpha: float = 1.0
    p: float = 2.0
    f_custom: Optional[Callable[[float], float]] = field(default=None, repr=False)
    f_prime_custom: Optional[Callable[[float], float]] = field(default=None, repr=False)
    f_double_prime_custom: Optional[Callable[[float], float]] = field(
        default=None, repr=False
    )
    s_min: float = -math.inf
    s_max: float = math.inf

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be > 0, got {self.beta!r}")
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be >= 0, got {self.kappa!r}")
        if self.kind == QUADRATIC and not (self.alpha > 0.0):
            raise ValueError(f"alpha must be > 0, got {self.alpha!r}")
        if self.kind == FRACTIONAL_POWER and not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p!r}")
        if self.kind == CUSTOM:
            if not (self.f_custom and self.f_prime_custom and self.f_double_prime_custom):
                raise ValueError("custom model needs f, f', and f'' callables")
            self._validate_custom()

    # -- constructors ------------------------------------------------------

    @classmethod
    def classical(cls, beta: float = 1.0, kappa: float = 0.0) -> "ModelParams":
        return cls(kind=CLASSICAL, beta=beta, kappa=kappa)

    @classmethod
    def logarithmic(cls, beta: float = 1.0, kappa: float = 0.0) -> "ModelParams":
        return cls(kind=LOGARITHMIC, beta=beta, kappa=kappa)

    @classmethod
    def exponential(cls, beta: float = 1.0, kappa: float = 0.0) -> "ModelParams":
        return cls(kind=EXPONENTIAL, beta=beta, kappa=kappa)

    @classmethod
    def fractional_power(
        cls, beta: float = 1.0, p: float = 2.0, kappa: float = 0.0
    ) -> "ModelParams":
        return cls(kind=FRACTIONAL_POWER, beta=beta, p=p, kappa=kappa)

    @classmethod
    def quadratic(cls, alpha: float = 1.0, kappa: float = 0.0) -> "ModelParams":
        return cls(kind=QUADRATIC, alpha=alpha, kappa=kappa)

    @classmethod
    def custom(
        cls,
        f: Callable[[float], float],
        f_prime: Callable[[float], float],
        f_double_prime: Callable[[float], float],
        kappa: float = 0.0,
        s_min: float = -math.inf,
        s_max: float = math.inf,
    ) -> "ModelParams":
        return cls(
            kind=CUSTOM,
            kappa=kappa,
            f_custom=f,
            f_prime_custom=f_prime,
            f_double_prime_custom=f_double_prime,
            s_min=s_min,
            s_max=s_max,
        )

    def _validate_custom(self):
        fc, fp, fpp = self.f_custom, self.f_prime_custom, self.f_double_prime_custom
        if abs(fc(0.0)) > 1e-12:
            raise ValueError(f"custom f(0) = {fc(0.0)!r}, expected 0")
        if abs(fp(0.0) - 1.0) > 1e-9:
            raise ValueError(f"custom f'(0) = {fp(0.0)!r}, expected 1")
        # analytic derivatives vs central differences at a few interior points
        for s in _FD_CHECK_POINTS:
            if not (self.s_min + 1e-3 < s < self.s_max - 1e-3):
                continue
            h = 1e-6 * max(1.0, abs(s))
            fd1 = (fc(s + h) - fc(s - h)) / (2.0 * h)
            if abs(fd1 - fp(s)) > 1e-6 * max(1.0, abs(fp(s))):
                raise ValueError(
                    f"custom f' disagrees with central difference at s={s}: "
                    f"{fp(s)!r} vs {fd1!r}"
                )
            fd2 = (fp(s + h) - fp(s - h)) / (2.0 * h)
            if abs(fd2 - fpp(s)) > 1e-6 * max(1.0, abs(fpp(s))):
                raise ValueError(
                    f"custom f'' disagrees with central difference at s={s}: "
                    f"{fpp(s)!r} vs {fd2!r}"
                )

    # -- domain and model functions ---------------------------------------

    def domain_rows(self, s) -> np.ndarray:
        """The domain test on an array of invariants, element by element."""
        s = np.asarray(s, dtype=float)
        b = self.beta
        ok = np.isfinite(s)
        if self.kind == CLASSICAL:
            ok &= 2.0 * b * s < 1.0
        elif self.kind == LOGARITHMIC:
            ok &= b * s < 1.0
        elif self.kind == FRACTIONAL_POWER and not _is_integral(self.p):
            ok &= 1.0 + b * s / self.p > 0.0
        elif self.kind == CUSTOM:
            ok &= (self.s_min < s) & (s < self.s_max)
        return ok

    def lower_edge(self) -> float:
        """domain_rows' lower bound on s, to rounding (-inf without one)."""
        if self.kind == FRACTIONAL_POWER and not _is_integral(self.p):
            return -self.p / self.beta
        return self.s_min if self.kind == CUSTOM else -math.inf

    def domain_error(self, s: float) -> DomainViolation:
        """The DomainViolation that a rows kernel records for a row whose
        invariant s lies outside the model domain."""
        return DomainViolation(f"s={float(s)!r} outside domain of {self.kind} model")

    def derivative_rows(self, s, order: int) -> np.ndarray:
        """f (order 0), f' (1) or f'' (2) on an array of invariants, with no
        domain check: callers pass rows that domain_rows accepts. One s is
        the one-element call derivative_rows(np.array([s]), order)[0], with
        the bits of a rows call (a 0-d array does not give them: numpy's 0-d
        x ** 2 rounds unlike the array's)."""
        s = np.asarray(s, dtype=float)
        b = self.beta
        if self.kind == CLASSICAL:
            if order == 2:
                return b / np.power(1.0 - 2.0 * b * s, 1.5)
            root = np.sqrt(1.0 - 2.0 * b * s)
            return (1.0 - root) / b if order == 0 else 1.0 / root
        if self.kind == LOGARITHMIC:
            if order == 0:
                return -np.log1p(-b * s) / b
            return 1.0 / (1.0 - b * s) if order == 1 else b / (1.0 - b * s) ** 2
        if self.kind == EXPONENTIAL:
            if order == 0:
                return np.expm1(b * s) / b
            return np.exp(b * s) if order == 1 else b * np.exp(b * s)
        if self.kind == FRACTIONAL_POWER:
            if order == 0:
                return self._fractional_f_rows(s)
            if order == 1:
                return self.power_rows(s, 1)
            if self.p == 1.0:
                return np.zeros_like(s)
            return b * (self.p - 1.0) / self.p * self.power_rows(s, 2)
        if self.kind == QUADRATIC:
            if order == 0:
                return s + self.alpha * s * s
            return 1.0 + 2.0 * self.alpha * s if order == 1 else np.full_like(s, 2.0 * self.alpha)
        fn = (self.f_custom, self.f_prime_custom, self.f_double_prime_custom)[order]
        return np.array([fn(float(v)) for v in s.flat]).reshape(s.shape)

    def _fractional_f_rows(self, s) -> np.ndarray:
        """The fractional f = ((1 + beta s/p)^p - 1)/beta on an array, as
        expm1(p log1p(beta s/p))/beta wherever the base 1 + beta s/p is
        positive: the power form cancels at small s (f(1e-15) = 8.9e-16 and
        f(3e-19) = 0 at p = 2, beta = 1). A nonpositive base, in the domain
        for integer p only, keeps the power form."""
        s = np.asarray(s, dtype=float)
        x = self.beta * s / self.p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = np.expm1(self.p * np.log1p(x)) / self.beta
            low = ~(1.0 + x > 0.0)
            if low.any():
                f = np.where(low, (self.power_rows(s, 0) - 1.0) / self.beta, f)
        return f

    def power_rows(self, s, order: int) -> np.ndarray:
        """(1 + beta s / p)^(p - order) on an array, through numpy's power.
        A non-integer power of a nonpositive base is NaN here; domain_rows
        excludes those rows."""
        base = 1.0 + self.beta * np.asarray(s, dtype=float) / self.p
        expo = self.p - order
        if _is_integral(self.p):
            expo = float(round(expo))
        return np.power(base, expo)
