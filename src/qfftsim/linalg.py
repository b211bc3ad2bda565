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

#: Absolute tolerance used by default for unitarity and matrix equality checks.
DEFAULT_TOL = 1e-10

#: Largest permanent computed by default; Glynn's formula is O(2^n * n).
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


@functools.lru_cache(maxsize=None)
def _glynn_signs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^k sign rows over k matrix rows, as a (2^k, k) table, and each row's product.

    Row ``j`` carries -1 in column ``i`` when bit ``i`` of ``j`` is set. The
    arrays are read-only because every caller shares them.
    """
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    table = (1 - 2 * bits).astype(complex)
    parity = (1 - 2 * (bits.sum(axis=1) & 1)).astype(float)
    table.flags.writeable = False
    parity.flags.writeable = False
    return table, parity


def permanent(a, cap: int = PERMANENT_CAP) -> complex:
    """Permanent of a square complex matrix via Glynn's formula.

    perm(A) = 2^(1-n) * sum_d (prod_i d_i) * prod_j (sum_i d_i a_ij) over the
    sign vectors d in {+1, -1}^n with d_0 = +1. One matrix product gives the
    column sums for every sign pattern of rows 1..k, k = min(n - 1,
    GLYNN_BLOCK); a Python loop runs only over the 2^(n-1-k) patterns of the
    rows above them, so not at all when n <= GLYNN_BLOCK + 1. The work is
    O(2^n * n). Matrices larger than ``cap`` are refused rather than silently
    taking hours.
    """
    a = as_complex_matrix(a)
    n, n2 = a.shape
    if n != n2:
        raise ShapeError(f"permanent needs a square matrix, got {a.shape}")
    if n > cap:
        raise CapacityError(f"permanent of size {n} exceeds cap {cap}")
    if n == 0:
        return complex(1.0)

    k = min(n - 1, GLYNN_BLOCK)
    table, parity = _glynn_signs(k)
    low_sums = a[0] + table @ a[1 : k + 1]
    if k == n - 1:
        return complex(parity @ low_sums.prod(axis=1)) / (1 << k)
    high_table, high_parity = _glynn_signs(n - 1 - k)
    total = 0.0 + 0.0j
    for offset, sign in zip(high_table @ a[k + 1 :], high_parity):
        total += sign * (parity @ (low_sums + offset).prod(axis=1))
    return complex(total) / (1 << (n - 1))


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
    return float(np.max(np.abs(u.conj().T @ u - eye)))


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
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = list(obj["entries"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix object needs 'rows', 'cols' and 'entries': {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValidationError(f"matrix dimensions must be non-negative, got {rows}x{cols}")
    if len(entries) != rows * cols:
        raise ValidationError(f"expected {rows * cols} entries, got {len(entries)}")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix entries must be [re, im] number pairs: {exc}") from exc
    return flat.reshape(rows, cols)
