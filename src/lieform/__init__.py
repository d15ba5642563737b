"""Structure-preserving advection of discrete differential forms.

Scalar, circulation, and volume fields live on a periodic Cartesian
complex as degree-0/1/2 cochains. Transport along a staggered flux field
uses the Cartan assembly (contract the derivative, differentiate the
contraction), which keeps d and the update operator commuting to roundoff
and reduces to plain finite-volume transport at the top degree.
"""

from .advection import AdvectionConfig, advect, lie_increment, step
from .contraction import ContractionResult, contract
from .derivative import exterior_derivative
from .forms import (AnalyticForm, Cochain, NonFiniteValueError, RectangleForm,
                    axpy, discretize, norm)
from .grid import (CellRef, GridComplex2D, boundary_chain, build_complex,
                   shifted)
from .output import (ErrorRecord, RasterImage, read_error_table, read_field,
                     read_pgm, render_field, write_error_table, write_field,
                     write_pgm)
from .reconstruct import (SMOOTH_EPS, CourantError, SchemeKind, Stencil1D,
                          extrusion_integral, interface_point_values,
                          reconstruct_at_interface)
from .scenarios import (Scenario, apply_overrides, builtin_scenario,
                        fit_convergence_slope, run_scenario, scenario_names,
                        split_fv_step)
from .velocity import (ConstantVelocity, StaggeredVelocity,
                       StreamFunctionVelocity, discretize_velocity,
                       max_courant, rudman_vortex)

__version__ = "0.1.0"

__all__ = [
    "AdvectionConfig", "advect", "lie_increment", "step",
    "ContractionResult", "contract",
    "exterior_derivative",
    "AnalyticForm", "Cochain", "NonFiniteValueError", "RectangleForm",
    "axpy", "discretize", "norm",
    "CellRef", "GridComplex2D", "boundary_chain", "build_complex", "shifted",
    "ErrorRecord", "RasterImage", "read_error_table", "read_field",
    "read_pgm", "render_field", "write_error_table", "write_field",
    "write_pgm",
    "SMOOTH_EPS", "CourantError", "SchemeKind", "Stencil1D",
    "extrusion_integral", "interface_point_values",
    "reconstruct_at_interface",
    "Scenario", "apply_overrides", "builtin_scenario",
    "fit_convergence_slope", "run_scenario", "scenario_names",
    "split_fv_step",
    "ConstantVelocity", "StaggeredVelocity", "StreamFunctionVelocity",
    "discretize_velocity", "max_courant", "rudman_vortex",
    "__version__",
]
