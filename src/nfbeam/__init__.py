"""Near-field beam steering for planar antenna arrays.

Synthesizes per-element phase excitations that steer beams with a known
phase-wavefront shape (plane, cone, or custom) toward arbitrary azimuth
and elevation, and computes the resulting complex vector near field for
beam-shape and polarization analysis.
"""

from .analysis import (
    BeamMetrics,
    EmptyGrid,
    PolarizationReport,
    RadiusOutOfRange,
    TransverseProfile,
    estimate_direction,
    polarization_report,
    propagation_range,
    transverse_profile,
)
from .field import (
    ClearanceViolation,
    CoincidentPoint,
    FieldGrid,
    ObservationGrid,
    export_field_csv,
    frequency_to_wavelength,
    total_field,
    wavenumber,
)
from .geometry import (
    AngleRangeError,
    SteeringAngles,
    rot_x,
    rot_z,
    steering_rotation,
    to_primed,
)
from .solver import (
    SolverConfig,
    SolverFailure,
    cone_distance_closed_form,
    plane_distance_closed_form,
)
from .synthesis import (
    ArrayGeometry,
    Excitation,
    PhaseDistribution,
    export_phase_csv,
    phase_shift,
    synthesize,
    to_excitation,
    wrap_phase,
)
from .wavefront import (
    SteeredWavefront,
    Wavefront,
    steer,
    surface_eval,
    surface_gradient,
)

__version__ = "0.1.0"
