"""qfftsim: simulation, synthesis and certification of Fourier-transform
photonic interferometers.

Subsystems
----------
linalg       permanents, fidelity, unitarity checks, Haar sampling, matrix JSON
fourier      Fourier matrices, cyclic inputs, the suppression predicate/partition
circuit      butterfly synthesis of the Fourier transform and circuit composition
layout       planar hypercube waveguide placement for the butterfly circuit
models       Fock / distinguishable / mean-field output statistics, delay curves
certify      count tables and CSV, visibilities, violation curves with exact error bars, verdicts
reconstruct  chi-squared phase reconstruction from two-photon visibilities, by a
             multi-start Levenberg-Marquardt of its own; moduli from singles
cli          the ``qfft`` command-line tool
"""

__version__ = "0.1.0"

from .certify import (
    CoincidenceTable,
    D_DISTINGUISHABLE,
    D_MEAN_FIELD,
    RULES_OUT_BOTH,
    RULES_OUT_DISTINGUISHABLE,
    RULES_OUT_NEITHER,
    ViolationReport,
    certify,
    violation_curve,
    visibility,
)
from .circuit import (
    Layer,
    QfftCircuit,
    circuit_to_unitary,
    nontrivial_phase_positions,
    perturb_circuit,
    set_phases,
    synthesize_qfft,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ParseError,
    QfftError,
    ShapeError,
    UndefinedVisibilityError,
    ValidationError,
)
from .fourier import (
    OutputPartition,
    cyclic_inputs,
    is_suppressed,
    partition_outputs,
    qft_matrix,
)
from .layout import HypercubeLayout, hypercube_layout
from .linalg import (
    fidelity,
    haar_random_unitary,
    permanent,
)
from .models import (
    CoincidenceCurves,
    DelayModel,
    OutcomeDistribution,
    distinguishable_distribution,
    fock_distribution,
    full_bunching_visibilities,
    mean_field_distribution,
    two_photon_coincidences,
    two_photon_probabilities,
)
from .reconstruct import (
    ReconstructionProblem,
    ReconstructionResult,
    chi2_objective,
    fit_phases,
    gauge_fixed_fidelity,
    moduli_from_singles,
    phase_sensitivity,
)
