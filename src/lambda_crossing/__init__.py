"""Avoided-crossing resonances of a driven 3-level Lambda system.

Numerical library and CLI for dressed spectra, structural and dynamical
resonance loci, the dynamical shift between them, the weak-probe
measurement protocol, the level-shift (resolvent) iteration, and concrete
alkali-atom feasibility numbers.
"""

from .dynamics import evolve, p13_effective, p13_full, transfer_envelope, transfer_supremum
from .effective import (
    EffectiveModel,
    ImplicitModel,
    effective_energies,
    eliminate,
    level_shift,
    mixing_angle,
)
from .errors import (
    BracketError,
    ConvergenceError,
    EnvelopeError,
    ExtractionError,
    GridError,
    LambdaCrossingError,
    PoleError,
    ScenarioError,
    SingularEliminationError,
)
from .experiment import (
    RB87,
    AlkaliSpec,
    ExperimentReport,
    bias_field,
    scattering_rate,
    scenario_report,
    splittings,
)
from .hamiltonian import (
    CharacterScan,
    DressedSpectrum,
    RamanParams,
    build_hamiltonian,
    diagonalize,
    character_swap_point,
    dressed_spectrum,
    gap32,
    track_character,
)
from .probe import (
    AlphaElements,
    FeasibilityReport,
    Peak,
    ProbeParams,
    ProbeSpectrum,
    ProbedResonance,
    alpha_elements,
    default_nu_grid,
    feasibility_check,
    measured_splitting,
    probe_spectrum,
    probe_time_domain_oracle,
    probe_transition_probability,
    probed_structural_resonance,
)
from .resolvent import LevelIteration, iterate_levels, resolvent_structural_resonance
from .resonance import (
    ResonanceReport,
    ShiftScanRow,
    dynamical_approx,
    dynamical_exact_effective,
    dynamical_exact_full,
    dynamical_shift,
    resonance_report,
    shift_approx,
    shift_scan,
    structural_approx,
    structural_exact,
)

__version__ = "0.1.0"
