"""Concrete alkali-atom settings for the microwave and optical scenarios.

All inputs and outputs here are ordinary frequencies (Hz), the convention
of laboratory specifications; the dimensionless ratios entering every
formula make that convention self-consistent. Spontaneous-scattering rates
are reported in events per second (the decay rate enters in angular
units), matching the usual quoted numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScenarioError
from .hamiltonian import RamanParams
from .probe import _probe_bounds
from .resonance import shift_approx

# mu_B / h in Hz per Gauss.
BOHR_MAGNETON_HZ_PER_G = 1.3996e6


@dataclass(frozen=True)
class AlkaliSpec:
    """Ground-state hyperfine data of an alkali species.

    hfs_splitting is the zero-field hyperfine splitting in Hz,
    gamma_excited the excited-state decay rate Gamma / 2 pi in Hz
    (optical scenario only). Every number given must be finite;
    hfs_splitting and gamma_excited positive, and g_j >= g_i (g_j == g_i
    is left to bias_field, which calls it singular).
    """

    hfs_splitting: float
    nuclear_spin: float
    g_j: float
    g_i: float
    gamma_excited: float | None = None

    def __post_init__(self):
        if self.nuclear_spin <= 0 or (2 * self.nuclear_spin) % 1 != 0:
            raise ValueError("nuclear spin must be a positive half-integer")
        for name in ("hfs_splitting", "g_j", "g_i"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.hfs_splitting <= 0:
            raise ValueError(f"hfs_splitting must be positive, got {self.hfs_splitting!r}")
        if self.g_j < self.g_i:
            raise ValueError(f"g_j must be >= g_i, got g_j = {self.g_j!r} < g_i = {self.g_i!r}")
        gamma = self.gamma_excited
        if gamma is not None and not (math.isfinite(gamma) and gamma > 0):
            raise ValueError(f"gamma_excited must be finite and positive, got {gamma!r}")

    @property
    def chi(self) -> float:
        return 1.0 / (self.nuclear_spin + 0.5)


RB87 = AlkaliSpec(
    hfs_splitting=6.835e9,
    nuclear_spin=1.5,
    g_j=2.0023,
    g_i=-0.000995,
    gamma_excited=6.1e6,
)

PRESETS = {"rb87": RB87}


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated numbers and verdict for one drive scenario."""

    scenario: str
    bias_field: float
    delta_e31: float
    delta_e23: float
    delta_e21: float
    dynamical_shift: float
    probe_time_bound: float
    probe_rabi_bound: float
    scattering_rate: float | None
    feasible: bool
    notes: str


def bias_field(spec: AlkaliSpec) -> float:
    """Bias field (Gauss) centering the |1>-|3> avoided crossing.

    At this field the |1>-|3> splitting is first-order insensitive to
    field fluctuations.
    """
    if spec.g_j == spec.g_i:
        raise ValueError("g_j = g_i makes the bias field singular")
    return spec.chi * spec.hfs_splitting / (BOHR_MAGNETON_HZ_PER_G * (spec.g_j - spec.g_i))


def splittings(spec: AlkaliSpec):
    """Transition frequencies (delta_e31, delta_e23, delta_e21) in Hz at the bias field."""
    chi = spec.chi
    de31 = math.sqrt(1.0 - chi * chi) * spec.hfs_splitting
    de23 = spec.g_i * BOHR_MAGNETON_HZ_PER_G * bias_field(spec) + 0.5 * spec.hfs_splitting * (
        math.sqrt(1.0 + chi * chi) - math.sqrt(1.0 - chi * chi)
    )
    return de31, de23, de31 + de23


def scattering_rate(spec: AlkaliSpec, omega1: float, omega2: float, delta1: float) -> float:
    """Spontaneous-scattering rate from the Raman fields, in events/s.

    omega1, omega2, delta1 in any common frequency unit (only their ratios
    enter); the decay rate converts to angular units so the result is a
    true rate. Raises ValueError at delta1 = 0, where the rate diverges,
    and for a non-finite omega1, omega2 or delta1.
    """
    if spec.gamma_excited is None:
        raise ScenarioError("scattering rate requires gamma_excited (optical scenario)")
    if delta1 == 0.0:
        raise ValueError("delta1 must be nonzero: the scattering rate diverges at delta1 = 0")
    for name, value in (("omega1", omega1), ("omega2", omega2), ("delta1", delta1)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    gamma_angular = 2.0 * math.pi * spec.gamma_excited
    return gamma_angular * (omega1**2 + omega2**2) / (8.0 * delta1**2)


def scenario_report(
    spec: AlkaliSpec,
    omega1: float,
    omega2: float,
    delta2: float,
    delta1: float | None = None,
    scenario: str = "microwave",
) -> ExperimentReport:
    """Feasibility summary for one drive setting (frequencies in Hz).

    The optical scenario is viable only if scattering broadening stays
    well below the dynamical shift; the microwave scenario has no
    spontaneous emission and is viable whenever there is a shift to
    resolve: shift > 0 (one that underflows to 0 is not). The drive values
    are checked as RamanParams checks them (delta1 defaults to delta2).
    """
    if scenario not in ("optical", "microwave"):
        raise ValueError(f"unknown scenario {scenario!r}")
    params = RamanParams(omega1, omega2, delta2 if delta1 is None else delta1, delta2)
    shift = shift_approx(params)
    time_bound, rabi_bound = _probe_bounds(shift, 1.0)
    de31, de23, de21 = splittings(spec)
    notes = (
        "Secondary ac-Stark and Bloch-Siegert shifts are suppressed relative to "
        "the lowest-order dynamical shift by roughly the ratio of the Raman "
        "detuning to the transition frequency (~1e-4 here) and are not computed."
    )
    if scenario == "optical":
        rate = scattering_rate(spec, params.omega1, params.omega2, params.delta1)
        # Broadening must stay an order of magnitude below the shift
        # (compared in angular units) to leave the shift resolvable.
        feasible = rate < 0.1 * (2.0 * math.pi * shift)
    else:
        rate = None
        feasible = shift > 0.0
    return ExperimentReport(
        scenario=scenario,
        bias_field=bias_field(spec),
        delta_e31=de31,
        delta_e23=de23,
        delta_e21=de21,
        dynamical_shift=shift,
        probe_time_bound=time_bound,
        probe_rabi_bound=rabi_bound,
        scattering_rate=rate,
        feasible=feasible,
        notes=notes,
    )
