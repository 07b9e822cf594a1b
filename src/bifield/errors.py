"""Exception types shared across the package.

Numeric failures are deliberately loud: field evaluation inside an exclusion
ball, a scalar invariant leaving its model domain, or a solver that cannot
bracket its root all raise instead of clamping, so that a bad configuration
cannot silently produce plausible-looking numbers.

Batched kernels keep that contract per row: they return a code array (0 for
a row that evaluated, k for errors[k - 1]) next to the list of exceptions,
each exception the one a one-row call records for that row alone.
fail_rows and merge_failures build and combine such pairs. raise_first is
the one place a pair turns back into the raising contract: it raises the
first failed row's own exception unchanged, so a failure reads the same
whichever command or function meets it.
"""

import numpy as np


class FieldError(Exception):
    """Base class for all numeric/domain failures raised by this package."""


class SingularPoint(FieldError):
    """Evaluation point inside the exclusion ball of a point charge."""


class DomainViolation(FieldError):
    """Lorentz invariant s (or a derived scalar) left the model's domain."""


class NegativeArgument(FieldError):
    """Special function called outside its real branch (e.g. Lambert W of x < 0)."""


class NoNonnegativeRoot(FieldError):
    """Cubic solver found no root a >= 0; cannot occur for sigma2 >= 0."""


class InversionFailure(FieldError):
    """Constitutive inversion failed to produce a valid (E, H) pair."""


class QuadratureError(FieldError):
    """Adaptive quadrature failed to reach its tolerance within budget."""


class ConfigError(Exception):
    """Malformed run configuration (CLI exit code 1)."""


def fail_rows(code: np.ndarray, errors: list, bad, make, idx=None) -> None:
    """Fail the rows where the boolean mask bad holds and that have not
    failed yet. make(j) builds the exception of local row j; a shared
    exception instance may be passed instead. idx maps local rows to rows
    of code: an index array, or None or the full slice for the identity."""
    local = np.flatnonzero(bad)
    rows = local if idx is None or isinstance(idx, slice) else np.asarray(idx)[local]
    fresh = code[rows] == 0
    local, rows = local[fresh], rows[fresh]
    if isinstance(make, BaseException):
        if len(rows):
            errors.append(make)
            code[rows] = len(errors)
        return
    for j, i in zip(local, rows):
        errors.append(make(int(j)))
        code[i] = len(errors)


def merge_failures(code: np.ndarray, errors: list, rows: np.ndarray,
                   sub_code: np.ndarray, sub_errors: list) -> None:
    """Fold the (sub_code, sub_errors) of a batch evaluated at the indices
    rows into (code, errors); a row that already failed keeps its failure."""
    base = len(errors)
    errors.extend(sub_errors)
    hit = (sub_code != 0) & (code[rows] == 0)
    code[rows[hit]] = sub_code[hit] + base


def raise_first(code: np.ndarray, errors: list) -> None:
    """Raise the exception of the first failed row, as recorded, if any row
    failed."""
    if code.any():
        raise errors[code[np.argmax(code != 0)] - 1]
