"""motkit: filament-bundle magnetostatics for compact magneto-optical traps."""

from .analysis import (GradientReport, SuitabilityVerdict, ZeroResult,
                       find_field_zero, fit_gradients, jacobian_at,
                       mot_suitability)
from .errors import (ClearanceError, DegenerateFit, EmptySample,
                     InfeasibleStart, InvalidGeometry, InvalidInput,
                     MotKitError, ObjectiveEvaluationError, SingularPoint,
                     ZeroNotBracketed)
from .field import (EPS_SING, MU_0, FieldMap, field_at, field_many,
                    field_map_csv, sample_line, sample_plane)
from .geometry import (COPPER, MATERIALS, TITANIUM_LIKE, Conductor,
                       GeometrySpec, Material, SegmentList, build,
                       clearance_check, conductor_sections, make_free_path,
                       make_loop)
from .optimize import (ObjectiveSpec, OptResult, evaluate_design,
                       objective_value, optimize_geometry)
from .power import (PowerReport, current_density, joule_power, power_report,
                    required_heat_transfer_coefficient)
from .scaling import (ScalingFit, ScalingReport, gradient_per_root_watt,
                      scaling_report, verify_scaling_numerically)

__version__ = "0.1.0"
