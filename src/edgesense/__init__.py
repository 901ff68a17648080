"""Steady-state transport through 1D lattices with edge states under weak dephasing."""

from .lattice import (
    EdgeStateReport,
    Lattice,
    build_custom,
    build_rhombic,
    build_ssh,
    classify_edge_states,
    spectrum,
)
from .leads import CompositeSystem, RingLead, assemble_composite, lead_dispersion, thermal_occupations
from .master_eq import (
    DegenerateSteadyStateWarning,
    SolveDiagnostics,
    SolverConfig,
    SolverError,
    SolverMethod,
    apply_liouvillian,
    solve_steady_state,
    validate_spdm,
)
from .observables import (
    CurrentProfile,
    bond_current,
    current_profile,
    edge_imbalance,
    population_gradient,
    site_populations,
)

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config,
    parse_config_dict,
)
from .experiments import (
    EsakiTsuFit,
    PeakMetrics,
    SweepTable,
    conduction_window,
    fit_esaki_tsu,
    peak_metrics,
    read_sweep_csv,
    sweep_decoherence,
    sweep_gate,
    write_sweep_csv,
)

__version__ = "0.1.0"
