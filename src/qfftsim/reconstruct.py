"""Recovery of the implemented unitary from measurement data.

The circuit's free phase shifters are fitted to the measured two-photon
visibilities by chi-squared minimisation over the phase torus, multi-start
Levenberg-Marquardt on the analytic residual Jacobian; the solver is in this
module and needs only numpy. The fit does not read the singles, the
single-photon transmission probabilities: they give the element moduli
(:func:`moduli_from_singles`).

Identifiability caveats, both handled here:

* Singles and two-photon visibilities are invariant under per-mode phases on
  the inputs and outputs, and also under complex conjugation of the whole
  matrix (for the butterfly templates, conjugation is exactly the negation
  of all phase parameters). :func:`canonical_gauge` fixes both freedoms, and
  fidelities between reconstructed and target matrices are computed in that
  gauge, the better of the target's two conjugation branches.
* Not every input set determines the phases: visibilities from the cyclic
  inputs alone leave flat directions. :func:`phase_sensitivity` reports the
  conditioning of the visibility Jacobian so input sets can be screened
  before measuring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CompiledCircuit,
    QfftCircuit,
    _check_positions,
    circuit_from_json,
    circuit_to_json,
    circuit_to_unitary,
    compile_circuit,
)
from .errors import ConvergenceError, DomainError, ValidationError
from .linalg import as_complex_matrix, assert_unitary, fidelity, matrix_to_json
from .models import _check_pair, two_photon_probabilities

TWO_PI = 2.0 * math.pi

DEFAULT_RESTARTS = 32

#: Most restarts of a fit. At the cap, ``qfft reconstruct`` took 3.6-4.8 s on
#: the 8-mode, 5-phase, 28-pair problem (1.0 s on 4 modes) on a shared 2-core
#: host and peaked at 39 MB RSS, 38 MB at the default; the starts take
#: 8 x restarts x phases bytes.
MAX_RESTARTS = 10**3


@dataclass(frozen=True)
class ReconstructionProblem:
    """Template circuit, free phase positions, and the measured data.

    ``singles`` maps (input mode, output mode) to a transmission probability;
    ``visibilities`` maps (input pair, output pair) to a (value, sigma) pair.
    Mode indices are 0-based; pairs are ascending.
    """

    template: QfftCircuit
    free_phases: tuple[tuple[int, int], ...]
    singles: dict[tuple[int, int], float]
    visibilities: dict[tuple[tuple[int, int], tuple[int, int]], tuple[float, float]]

    def __post_init__(self):
        _check_positions(self.template, self.free_phases)
        m = self.template.m
        col_sums: dict[int, float] = {}
        for (i, o), p in self.singles.items():
            if not (0 <= i < m and 0 <= o < m):
                raise DomainError(f"singles entry ({i},{o}) out of range for m={m}")
            if not -1e-12 <= p <= 1.0 + 1e-9:
                raise DomainError(f"singles probability {p} for ({i},{o}) outside [0, 1]")
            col_sums[i] = col_sums.get(i, 0.0) + p
        for i, total in col_sums.items():
            if total > 1.0 + 1e-6:
                raise DomainError(f"singles for input {i} sum to {total} > 1")
        for (inp, out), (value, sigma) in self.visibilities.items():
            a, b = inp
            i, j = out
            if not (0 <= a < b < m and 0 <= i <= j < m):
                raise DomainError(f"visibility key ({inp},{out}) out of range or unordered")
            if not math.isfinite(value):
                raise DomainError(f"visibility for ({inp},{out}) is not finite: {value}")
            if not 0 < sigma < math.inf:
                raise DomainError(f"visibility for ({inp},{out}) needs finite sigma > 0, got {sigma}")


@dataclass(frozen=True)
class RestartRecord:
    """Outcome of one local minimisation: final chi-squared, (r, J) evaluations, success flag."""

    chi2: float
    nfev: int
    success: bool


@dataclass(frozen=True)
class ReconstructionResult:
    """Best fit plus diagnostics.

    ``restarts`` holds one record per restart in restart order;
    ``restarts_in_best_basin`` counts those whose chi-squared lies within
    ``BASIN_RTOL * max(best, 1)`` of the best (relative for any real data,
    absolute near a noiseless zero); ``jacobian_condition`` is the condition
    number of the residual Jacobian at the fitted phases (None without free
    phases). All of it is deterministic for a fixed seed.
    """

    fitted_phases: dict[tuple[int, int], float]
    reconstructed_unitary: np.ndarray
    chi2: float
    fidelity_vs_target: float | None
    restarts: tuple[RestartRecord, ...] = ()
    restarts_in_best_basin: int = 0
    jacobian_condition: float | None = None


#: Chi-squared window, relative to max(best, 1), within which a restart reaches the best basin.
BASIN_RTOL = 1e-6

#: Relative size of the imaginary part that fixes the conjugation branch in
#: :func:`canonical_gauge`.
GAUGE_TOL = 1e-8


@dataclass(frozen=True)
class _Visibilities:
    """The template compiled once, and the measured visibilities as gather arrays.

    Row n of ``modes`` is visibility n's (a, b, i, j); column n of ``flat``
    holds the row-major positions of U_ia, U_jb, U_ib and U_ja in that order.
    """

    circuit: CompiledCircuit
    modes: np.ndarray
    flat: np.ndarray
    v_meas: np.ndarray
    sigmas: np.ndarray


def _compile(problem: ReconstructionProblem) -> _Visibilities:
    entries = sorted(problem.visibilities.items())
    modes = np.array([(a, b, i, j) for ((a, b), (i, j)), _ in entries], dtype=int).reshape(-1, 4)
    values = np.array([vs for _, vs in entries], dtype=float).reshape(-1, 2)
    a, b, i, j = modes.T
    m = problem.template.m
    flat = np.stack([i * m + a, j * m + b, i * m + b, j * m + a])
    circuit = compile_circuit(problem.template, problem.free_phases)
    return _Visibilities(circuit, modes, flat, *values.T)


def _residuals(data: _Visibilities, phases, jacobian: bool = False):
    """Residuals (v_model - v_meas)/sigma at the given phases and, on request, their Jacobian (N, k).

    With the pair products T_1 = U_ia U_jb and T_2 = U_ib U_ja, the
    amplitude is A = T_1 + T_2, the classical rate C = |T_1|^2 + |T_2|^2 and
    the model visibility 1 - |A|^2/C (the bunched-output factor 1/2 cancels
    in the ratio). Each of the four amplitudes X enters only through its
    pair's product T with its partner P (U_ia with U_jb, U_ib with U_ja),
    so dv = 2 Re sum_X dX coeff_X with
    coeff_X = (|A|^2 |P|^2 conj(X) - C conj(A) P) / C^2 = P conj(|A|^2 T - C A) / C^2,
    one complex product per amplitude once 2/(sigma C^2) is folded into the
    pair factor conj(...). With dU_k = i outer(left_k, right_k) gathered at
    each amplitude's position, dr/dphi_k = (2/sigma) Re sum_X dU_k[X] coeff_X.
    """
    if jacobian:
        u, left, right = data.circuit.unitary(phases, derivatives=True)
    else:
        u = data.circuit.unitary(phases)
    pairs = u.ravel()[data.flat].reshape(2, 2, -1)  # (U_ia, U_jb) and (U_ib, U_ja)
    products = pairs[:, 0] * pairs[:, 1]
    amp = products[0] + products[1]
    pq = amp.real**2 + amp.imag**2
    rates = products.real**2 + products.imag**2
    pc = rates[0] + rates[1]
    undefined = pc <= 0.0
    if undefined.any():
        a, b, i, j = data.modes[int(np.argmax(undefined))]
        raise DomainError(
            f"model visibility undefined: zero classical rate for input ({a},{b}) output ({i},{j})"
        )
    r = (1.0 - pq / pc - data.v_meas) / data.sigmas
    if not jacobian:
        return r
    scale = 2.0 / (data.sigmas * pc)
    factor = np.conj((scale * pq / pc) * products - scale * amp)
    coeff = (pairs[:, ::-1] * factor[:, None]).reshape(4, -1)  # each pair reversed holds the partners
    outer = (left[:, :, None] * right[:, None, :]).reshape(len(left), u.size)
    d_r = np.take(outer, data.flat, axis=1)  # (k, 4, N)
    d_r *= coeff
    return r, -np.imag(d_r.sum(axis=1)).T


def _singular_values(jac: np.ndarray) -> tuple[np.ndarray, float]:
    """Singular values and condition number; singular values at rounding level count as zero.

    The floor is absolute: visibilities and phases are both of order one, so
    a Jacobian that is zero up to rounding (every visibility stationary, as
    for cyclic inputs on the nominal template) has an infinite condition
    number rather than the ratio of two rounding errors.
    """
    svals = np.linalg.svd(jac, compute_uv=False)
    floor = max(jac.shape) * np.finfo(float).eps
    cond = float(svals[0] / svals[-1]) if svals[-1] > floor else float("inf")
    return svals, cond


def chi2_objective(problem: ReconstructionProblem, phases) -> float:
    """Chi-squared of the template at the given absolute phase values."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (len(problem.free_phases),):
        raise DomainError(
            f"expected {len(problem.free_phases)} phase parameters, got shape {phases.shape}"
        )
    if not np.all(np.isfinite(phases)):
        raise DomainError(f"phase parameters must be finite, got {phases.tolist()}")
    r = _residuals(_compile(problem), phases)
    return float(r @ r)


#: Stopping tests and budget of :func:`minimize`: converged when the gradient
#: 2 J^T r of r.r has max |component| <= GRADIENT_TOL, or when an accepted
#: step lowers r.r by at most DECREASE_TOL * max(f_old, 1) (L-BFGS-B's
#: ``pgtol`` and ``factr`` = 1e7 times the machine epsilon, as scipy sets
#: them); failed after MAX_EVALS evaluations or MAX_REJECTED rejected steps in
#: a row.
GRADIENT_TOL = 1e-5
DECREASE_TOL = 2.220446049250313e-09
MAX_EVALS = 15000
MAX_REJECTED = 20


@dataclass(frozen=True)
class LocalFit:
    """Outcome of :func:`minimize`: the last accepted point, its r.r, the
    evaluations made, and whether a stopping test was met."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool
    message: str


def minimize(fun, x0) -> LocalFit:
    """Levenberg-Marquardt from ``x0`` on ``fun(x) -> (r, J)``, minimising r.r.

    Each step solves (J^T J + lam s I) d = -J^T r with s = max(max diag J^T J, 1),
    so a zero column of J or a loss of rank stays solvable. lam starts at
    1e-3 and follows the ratio of the actual decrease of r.r to the one the
    linearised residuals predict: it is multiplied by 4 below 1/4 and divided
    by 4 above 3/4 (the trust-region rule of Nocedal & Wright, *Numerical
    Optimization*, Alg. 4.1; LM is section 10.3). A step that does not raise
    r.r is accepted. r and J are evaluated together at each trial point, and
    one whose r or J is not finite is rejected. A fit that runs out of
    evaluations, or is rejected MAX_REJECTED times in a row, stops at its
    last accepted point with ``success=False``.
    """
    nfev = 0

    def evaluate(point):
        nonlocal nfev
        nfev += 1
        r, jac = fun(point)
        f = float(r @ r)
        return (f, r, jac) if math.isfinite(f) and np.all(np.isfinite(jac)) else (math.inf, r, jac)

    x = np.array(x0, dtype=float)
    f, r, jac = evaluate(x)
    if f == math.inf:
        return LocalFit(x, f, nfev, False, "residuals or Jacobian not finite at the start")
    lam, rejected = 1e-3, 0
    while 2.0 * np.max(np.abs(grad := jac.T @ r)) > GRADIENT_TOL:
        if nfev >= MAX_EVALS:
            return LocalFit(x, f, nfev, False, "evaluation limit reached")
        if rejected >= MAX_REJECTED:
            return LocalFit(x, f, nfev, False, f"no decrease in {rejected} damped steps")
        hess = jac.T @ jac
        damping = lam * max(np.max(np.diag(hess)), 1.0)
        step = -np.linalg.solve(hess + damping * np.eye(len(x)), grad)
        f_new, r_new, jac_new = evaluate(x + step)
        actual, predicted = f - f_new, float(damping * (step @ step) - grad @ step)
        if actual < 0.25 * predicted:
            lam *= 4.0
        elif actual > 0.75 * predicted:
            lam /= 4.0
        if f_new > f:
            rejected += 1
            continue
        x, r, jac, rejected = x + step, r_new, jac_new, 0
        f, f_old = f_new, f
        if f_old - f <= DECREASE_TOL * max(f_old, 1.0):
            return LocalFit(x, f, nfev, True, "relative decrease below tolerance")
    return LocalFit(x, f, nfev, True, "gradient below tolerance")


def fit_phases(
    problem: ReconstructionProblem,
    restarts: int = DEFAULT_RESTARTS,
    seed=None,
    target=None,
) -> ReconstructionResult:
    """Multi-start minimisation of the visibility chi-squared over the phases.

    Starts are drawn uniformly on [0, 2*pi)^k from ``seed``; each runs one
    Levenberg-Marquardt minimisation (:func:`minimize`) of chi2 = r.r, r
    being the sigma-scaled visibility residuals and J their Jacobian, both
    from :func:`_residuals` on the compiled template; J at the fitted phases
    gives the condition number. The lowest chi-squared wins, ties broken by
    restart index, so the result is deterministic for a fixed seed and restart
    count. When ``target`` is given, it must be an m x m unitary, and the
    fidelity of the reconstruction against it is computed in the canonical
    gauge.
    """
    if not 1 <= restarts <= MAX_RESTARTS:
        raise DomainError(f"restarts must be in [1, {MAX_RESTARTS}], got {restarts}")
    k = len(problem.free_phases)
    data = _compile(problem)
    if target is not None:
        target = assert_unitary(target, what="target matrix")
        m = problem.template.m
        if target.shape != (m, m):
            raise ValidationError(f"target matrix is {target.shape}, expected ({m}, {m})")
    if len(problem.visibilities) < k:
        raise DomainError(
            f"underdetermined fit: {len(problem.visibilities)} visibilities for {k} phases"
        )

    if k == 0:
        unitary = data.circuit.unitary()
        r = _residuals(data, ())
        fid = gauge_fixed_fidelity(unitary, target) if target is not None else None
        return ReconstructionResult({}, unitary, float(r @ r), fid)

    def objective(x):
        return _residuals(data, x, jacobian=True)

    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, TWO_PI, size=(restarts, k))
    best = None
    records = []
    failures = []
    for idx in range(restarts):
        res = minimize(objective, starts[idx])
        records.append(RestartRecord(float(res.fun), int(res.nfev), bool(res.success)))
        if not res.success:
            failures.append(f"restart {idx}: {res.message}")
        if best is None or res.fun < best[0]:
            best = (float(res.fun), idx, np.asarray(res.x, dtype=float))
    if len(failures) == restarts:
        raise ConvergenceError(
            "no restart converged: " + "; ".join(failures[:3]) + ("..." if len(failures) > 3 else "")
        )
    phases = np.mod(best[2], TWO_PI)
    unitary = data.circuit.unitary(phases)
    r, jac = _residuals(data, phases, jacobian=True)
    fid = gauge_fixed_fidelity(unitary, target) if target is not None else None
    fitted = dict(zip(problem.free_phases, (float(x) for x in phases)))
    window = BASIN_RTOL * max(best[0], 1.0)
    return ReconstructionResult(
        fitted,
        unitary,
        float(r @ r),
        fid,
        restarts=tuple(records),
        restarts_in_best_basin=sum(1 for rec in records if rec.chi2 - best[0] <= window),
        jacobian_condition=_singular_values(jac)[1],
    )


def moduli_from_singles(singles) -> np.ndarray:
    """Moduli matrix sqrt(P(out|in)), each column renormalised to unit norm.

    Requires a complete m x m table; column renormalisation removes any
    uniform per-input loss.
    """
    if not singles:
        raise DomainError("empty singles table")
    m = max(max(i, o) for i, o in singles) + 1
    table = np.full((m, m), np.nan)
    for (i, o), p in singles.items():
        if not 0 <= p < math.inf:
            raise DomainError(f"singles probability {p} for ({i},{o}) is not finite and non-negative")
        table[o, i] = p
    if np.any(np.isnan(table)):
        missing = int(np.sum(np.isnan(table)))
        raise DomainError(f"singles table incomplete: {missing} of {m * m} entries missing")
    moduli = np.sqrt(table)
    norms = np.linalg.norm(moduli, axis=0)
    if np.any(norms == 0):
        raise DomainError("singles table has an all-zero input column")
    return moduli / norms


def singles_from_unitary(u) -> dict[tuple[int, int], float]:
    """Ideal singles table P(out|in) = |U[out, in]|^2."""
    u = as_complex_matrix(u)
    m = u.shape[0]
    return {(i, o): float(abs(u[o, i]) ** 2) for i in range(m) for o in range(m)}


def visibilities_from_unitary(u, input_pairs, sigma: float) -> dict:
    """Ideal visibility table for the collision-free output pairs of each input."""
    if not 0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    u = as_complex_matrix(u)
    m = u.shape[0]
    table = {}
    for inp in input_pairs:
        a, b = _check_pair(u, inp)
        pq, pc = two_photon_probabilities(u, (a, b))
        for i in range(m):
            for j in range(i + 1, m):
                if pc[i, j] > 0:
                    table[((a, b), (i, j))] = (float(1.0 - pq[i, j] / pc[i, j]), sigma)
    return table


def canonical_gauge(u) -> np.ndarray:
    """Fix the gauge freedoms left by singles and visibility data.

    Output and input mode phases are chosen so the first row and first
    column are real and non-negative; the conjugation branch is then fixed
    by requiring the first entry (row-major) with a significant imaginary
    part to have a positive one.
    """
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValidationError(f"gauge fixing needs a square matrix, got {u.shape}")
    w = u * np.exp(-1j * np.angle(u[0, :]))[None, :]
    w = w * np.exp(-1j * np.angle(w[:, 0]))[:, None]
    scale = float(np.max(np.abs(w))) or 1.0
    for z in w.ravel():
        if abs(z.imag) > GAUGE_TOL * scale:
            if z.imag < 0:
                w = np.conj(w)
            break
    return w


def gauge_fixed_fidelity(u, v) -> float:
    """Fidelity after canonical gauge fixing of both arguments, the larger
    over both conjugation branches of ``v``.

    The branch rule of :func:`canonical_gauge` reads the sign of one
    imaginary part; when that part is near zero, noise can put two nearly
    conjugate matrices on opposite branches.
    """
    w, x = canonical_gauge(u), canonical_gauge(v)
    return max(fidelity(w, x), fidelity(w, np.conj(x)))


def phase_sensitivity(
    template: QfftCircuit,
    free_phases,
    input_pairs,
) -> tuple[np.ndarray, float]:
    """Conditioning of the visibility data with respect to the free phases.

    Builds the analytic Jacobian of all collision-free visibilities (with a
    nonzero classical rate) for the given input pairs with respect to the
    free phases, at the template's nominal values, and returns its singular
    values and condition number. An effectively infinite condition number
    means the input set cannot determine the phases.
    """
    if not free_phases or not input_pairs:
        raise DomainError("phase sensitivity needs at least one free phase and one input pair")
    pairs = [tuple(sorted(pair)) for pair in input_pairs]
    table = visibilities_from_unitary(circuit_to_unitary(template), pairs, 1.0)
    data = _compile(ReconstructionProblem(template, tuple(free_phases), {}, table))
    _, jac = _residuals(data, data.circuit.nominal, jacobian=True)
    return _singular_values(jac)


def problem_to_json(problem: ReconstructionProblem) -> dict:
    return {
        "template": circuit_to_json(problem.template),
        "free_phases": [[step, mode + 1] for step, mode in problem.free_phases],
        "singles": [
            {"input": i + 1, "output": o + 1, "p": p}
            for (i, o), p in sorted(problem.singles.items())
        ],
        "visibilities": [
            {"input": [a + 1, b + 1], "output": [i + 1, j + 1], "v": v, "sigma": s}
            for ((a, b), (i, j)), (v, s) in sorted(problem.visibilities.items())
        ],
    }


def problem_from_json(obj) -> ReconstructionProblem:
    try:
        raw_template = obj["template"]
        free = tuple((int(step), int(mode) - 1) for step, mode in obj["free_phases"])
        singles = {
            (int(e["input"]) - 1, int(e["output"]) - 1): float(e["p"])
            for e in obj.get("singles", [])
        }
        visibilities = {
            (
                (int(e["input"][0]) - 1, int(e["input"][1]) - 1),
                (int(e["output"][0]) - 1, int(e["output"][1]) - 1),
            ): (float(e["v"]), float(e["sigma"]))
            for e in obj.get("visibilities", [])
        }
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"malformed reconstruction problem: {exc}") from exc
    return ReconstructionProblem(circuit_from_json(raw_template), free, singles, visibilities)


def result_to_json(result: ReconstructionResult) -> dict:
    return {
        "fitted_phases": [
            {"step": step, "mode": mode + 1, "value": value}
            for (step, mode), value in sorted(result.fitted_phases.items())
        ],
        "reconstructed_unitary": matrix_to_json(result.reconstructed_unitary),
        "chi2": result.chi2,
        "fidelity_vs_target": result.fidelity_vs_target,
        "restarts": [
            {"chi2": rec.chi2, "nfev": rec.nfev, "success": rec.success} for rec in result.restarts
        ],
        "restarts_in_best_basin": result.restarts_in_best_basin,
        "jacobian_condition": (
            result.jacobian_condition
            if result.jacobian_condition is not None and math.isfinite(result.jacobian_condition)
            else None
        ),
    }
