"""Desk-scale simulator of auxiliary-qubit networks for Schrodinger dynamics.

The register holds a wavefunction discretized on a periodic grid of 2**k
points; every linear operator of interest (momentum, kinetic, potential,
Euler step, Fourier transform) can be wrapped into a network
I (x) I + U (x) |1><0| on the register plus one auxiliary qubit.  Sums of
operators compose by multiplying networks, products by splicing connectors
between them, and a whole time evolution is a chain of identical step
networks.  Everything is verified against dense linear-algebra references.
"""

from .errors import (
    ConfigError,
    DegenerateGrid,
    DimensionMismatch,
    GridMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NonFiniteValue,
    NonHermitianInput,
    NonPositiveFrequency,
    NonPositiveMass,
    NonSquareInput,
    NumericalFailure,
    PacketWidthWarning,
    QcpuSimError,
    ResidualTimeError,
    StabilityWarning,
    ZeroVector,
)
from .numerics import (
    exact_evolution,
    fidelity,
    hermiticity_defect,
    require_hermitian,
    spectral_norm_upper_bound,
    tensor,
)
from .qcpu import (
    AUX_ANNIHILATE,
    AUX_CREATE,
    QcpuFactor,
    QcpuNetwork,
    apply_network,
    build_network,
    compose_product,
    compose_sum,
    connector,
    connector_dagger,
    dense_from_factors,
    factor_matrix,
    project_aux,
    raising_block,
)
from .grid import (
    GridSpec,
    dft_operator,
    kinetic_eigenvalue,
    kinetic_operator,
    lift_one,
    momentum_eigenvalue,
    momentum_operator,
    plane_wave_mode,
    potential_operator,
    sample,
    two_body_potential,
    wavefunction_header,
    wavefunction_records,
)
from .evolve import (
    EvolutionConfig,
    euler_step,
    evolve_euler,
    step_network,
    whole_network,
)
from .systems import (
    PotentialSpec,
    SystemSpec,
    analytic_free_gaussian,
    diagonal_phase_network,
    gaussian_packet,
    harmonic_energies,
    harmonic_network,
    spectral_evolution,
    spectral_kinetic_matrix,
    spectral_momentum_values,
)
from .config import (
    EvolutionSettings,
    GaussianPacketSpec,
    InitialStateSpec,
    OutputSpec,
    RunConfig,
    load_run_config,
    parse_run_config,
)

__version__ = "0.1.0"
