"""gkpsim: exact logical-noise channels for GKP codes via the stabilizer
subsystem decomposition.

The package computes the qudit-level channel induced by bosonic noise
(envelope, loss, Gaussian displacements, white-noise dephasing) acting on
single- and multi-mode GKP codes, analytically for square codes and by
quadrature otherwise, together with the lattice/decoder geometry (primitive
cells, the shortest displacements that decode to a logical error, which
logical Cliffords keep a cell) and a truncated-Fock oracle for
cross-validation.
"""

from .charfun import (
    ChannelCharFn,
    GaussianKernel,
    compose,
    dephased_envelope_charfun,
    envelope_charfun,
    gaussian_channel_charfun,
    identity_charfun,
    loss_charfun,
    random_displacement_charfun,
)
from .lattice import (
    BoxCell,
    GkpCode,
    PrimitiveCell,
    ShiftedUnionCell,
    VoronoiCell,
    code_from_config,
    hexagonal_code,
    is_cell_invariant,
    rectangular_code,
    repetition_code,
    repetition_symmetric_cell,
    shortest_error_length,
    square_code,
    voronoi_box,
)
from .logical import (
    DecayViolationError,
    LogicalSuperop,
    TruncationSpec,
    box_cell_integral,
    highprec_channel_analysis,
    logical_channel,
    numeric_cell_integral,
    suggest_dps,
    window_coefficients,
)
from .metrics import (
    average_gate_fidelity,
    average_gate_infidelity,
    bloch_and_octahedron,
    choi_matrix,
    cptp_diagnostics,
    fock_qubit_baseline,
    gram_from_channel,
    lowdin_orthonormalize,
    ortho_matrix_from_gram,
)
from .symplectic import check_symplectic, omega, standard_form

__version__ = "0.1.0"
