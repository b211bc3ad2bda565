"""Dense complex matrix helpers: permanents, unitarity and fidelity checks,
Haar sampling and the matrix JSON format.

Matrices are plain ``numpy.ndarray`` objects with ``dtype=complex``; the
functions here add the domain-specific contracts (shape checks, the permanent
size cap, the unitarity tolerance) on top of numpy.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError
from .fourier import check_nonnegative_int

#: Absolute tolerance used by default for unitarity and matrix equality checks.
DEFAULT_TOL = 1e-10

#: Largest permanent computed; Glynn's formula is O(2^n * n).
PERMANENT_CAP = 20

#: Rows whose 2^k sign patterns one matrix product covers in a permanent. At
#: 12 the column sums of a 20 x 20 matrix take ~1.3 MB; each further row
#: would halve the Python loop over the remaining rows and double that.
GLYNN_BLOCK = 12


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a 2-D complex ndarray."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


@functools.lru_cache(maxsize=16)
def _glynn_signs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Glynn's 2^k sign vectors over k + 1 matrix rows with d_0 = +1, as the
    columns of a (k + 1, 2^k) table, and each vector's sign product over 2^k.

    Column ``j`` carries -1 in row ``i + 1`` when bit ``i`` of ``j`` is set.
    The arrays are read-only because every caller shares them.
    """
    bits = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
    table = np.ones((k + 1, 1 << k), dtype=complex)
    table[1:] -= 2 * bits
    weights = ((1 - 2 * (bits.sum(axis=0) & 1)) / (1 << k)).astype(complex)
    table.flags.writeable = False
    weights.flags.writeable = False
    return table, weights


def check_permanent_cap(n: int) -> None:
    """Refuse a permanent of size n above :data:`PERMANENT_CAP`; callers check first."""
    if n > PERMANENT_CAP:
        raise CapacityError(f"permanent of size {n} exceeds cap {PERMANENT_CAP}")


def permanent(a) -> complex:
    """Permanent of a square complex matrix via Glynn's formula.

    perm(A) = 2^(1-n) * sum_d (prod_i d_i) * prod_j (sum_i d_i a_ij) over the
    sign vectors d in {+1, -1}^n with d_0 = +1. The sign table of
    :func:`_glynn_signs` holds d_0, and its weights hold the 2^(1-n) scale.
    Up to n = GLYNN_BLOCK + 1 the whole sum is one product, one reduction and
    one dot: ``a.T.dot(table)`` gives the (n, 2^(n-1)) column sums of every
    sign pattern, their product down the rows each pattern's term, and the
    weights' dot the sum. Above that, one product covers the patterns of rows
    0..k, k = GLYNN_BLOCK, and a Python loop runs over the 2^(n-1-k) patterns
    of the rows above them, adding each pattern's row sums to those column
    sums. The work is O(2^n * n). Matrices larger than
    :data:`PERMANENT_CAP` are refused rather than silently taking hours.
    """
    a = as_complex_matrix(a)
    n, n2 = a.shape
    if n != n2:
        raise ShapeError(f"permanent needs a square matrix, got {a.shape}")
    check_permanent_cap(n)
    if n == 0:
        return complex(1.0)
    if n <= GLYNN_BLOCK + 1:
        table, weights = _glynn_signs(n - 1)
        return complex(weights.dot(np.multiply.reduce(a.T.dot(table), axis=0)))

    k = GLYNN_BLOCK
    table, weights = _glynn_signs(k)
    low_sums = np.dot(a[: k + 1].T, table)
    high_table, high_weights = _glynn_signs(n - 1 - k)
    total = 0.0 + 0.0j
    for offset, weight in zip(np.dot(high_table[1:].T, a[k + 1 :]), high_weights):
        total += weight * np.dot(weights, np.multiply.reduce(low_sums + offset[:, None], axis=0))
    return complex(total)


def fidelity(u, v) -> float:
    """Similarity ``|Tr(u^dag v)| / m`` between two m x m matrices.

    Equals 1 iff the matrices coincide up to a global phase; symmetric in its
    arguments.
    """
    u = as_complex_matrix(u)
    v = as_complex_matrix(v)
    if u.shape != v.shape or u.shape[0] != u.shape[1]:
        raise ShapeError(f"fidelity needs equal square matrices, got {u.shape} and {v.shape}")
    m = u.shape[0]
    return float(abs(np.trace(u.conj().T @ v)) / m)


def unitarity_defect(u) -> float:
    """Max-norm of ``u^dag u - I``."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"unitarity check needs a square matrix, got {u.shape}")
    eye = np.eye(u.shape[0])
    # a huge or infinite entry gives an inf or NaN defect, which the caller
    # refuses; the 0 x 0 matrix has no entries and no defect
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(u.conj().T @ u - eye), initial=0.0))


def assert_unitary(u, tol: float = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Return ``u`` as a complex ndarray, raising ValidationError if not unitary."""
    u = as_complex_matrix(u)
    defect = unitarity_defect(u)
    if not defect <= tol:  # a NaN defect or tolerance fails too
        raise ValidationError(f"{what} is not unitary: max |U^dag U - I| = {defect:.3e} > {tol:.1e}")
    return u


def haar_random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitary from QR of a complex Gaussian matrix.

    The R diagonal is phase-normalised so the distribution is exactly Haar
    rather than QR-convention dependent.
    """
    m = check_nonnegative_int(m, "mode count")
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def matrix_to_json(u) -> dict:
    """JSON object ``{"rows", "cols", "entries"}`` with row-major [re, im] pairs."""
    u = as_complex_matrix(u)
    entries = [[float(z.real), float(z.imag)] for z in u.ravel()]
    return {"rows": int(u.shape[0]), "cols": int(u.shape[1]), "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`, with structural validation."""
    try:
        rows = check_nonnegative_int(obj["rows"], "row count")
        cols = check_nonnegative_int(obj["cols"], "column count")
        entries = list(obj["entries"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix object needs 'rows', 'cols' and 'entries': {exc}") from exc
    if len(entries) != rows * cols:
        raise ValidationError(f"expected {rows * cols} entries, got {len(entries)}")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix entries must be [re, im] number pairs: {exc}") from exc
    return flat.reshape(rows, cols)
