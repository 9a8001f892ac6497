"""Desk-scale computational convex geometry for sets of finite perimeter:
projection bodies, polars, symmetrization, and the sharp isoperimetric-type
product bound they satisfy."""

__version__ = "0.1.0"

from .convex import (Ball, PolarVolume, PolarWrapper, Zonotope, polar_polygon,
                     polar_volume)
from .corpus import (random_box_union, random_polygon, random_sl2,
                     regular_polygon)
from .driver import (DirectionPolicy, SymmetrizationTrace, TraceStep,
                     cap_cover_greedy_step, run_symmetrization)
from .errors import (BudgetError, ConditionViolationError, InputError,
                     NonGenericPointError, NumericalError,
                     PathologicalInputError, ToolkitError,
                     UnsupportedDirectionError)
from .geometry import (SphericalGrid, circle_grid, default_grid,
                       hausdorff_distance, integrate_sphere, octant_grid)
from .projection import (PettyReport, affine_image_check, petty_product,
                         polar_steiner_inclusion_check, projection_body)
from .sets import (BoxUnion, ColumnStructure, PolygonSet, SurfaceMeasure,
                   coarea_check, column_structure, is_regular_direction,
                   load_set_file, perimeter, section_length_gradient,
                   set_from_json, set_to_json, steiner_symmetrize,
                   surface_measure, vertical_boundary_measure, volume)

__all__ = [
    "__version__",
    "Ball", "PolarVolume", "PolarWrapper", "Zonotope", "polar_polygon",
    "polar_volume",
    "BudgetError", "ConditionViolationError", "InputError",
    "NonGenericPointError", "NumericalError", "PathologicalInputError",
    "ToolkitError", "UnsupportedDirectionError",
    "SphericalGrid", "circle_grid", "default_grid",
    "hausdorff_distance", "integrate_sphere", "octant_grid",
    "PettyReport", "affine_image_check", "petty_product",
    "polar_steiner_inclusion_check", "projection_body",
    "DirectionPolicy", "SymmetrizationTrace", "TraceStep",
    "cap_cover_greedy_step", "run_symmetrization",
    "random_box_union", "random_polygon", "random_sl2", "regular_polygon",
    "BoxUnion", "ColumnStructure", "PolygonSet", "SurfaceMeasure",
    "coarea_check", "column_structure", "is_regular_direction",
    "load_set_file", "perimeter", "section_length_gradient", "set_from_json",
    "set_to_json", "steiner_symmetrize", "surface_measure",
    "vertical_boundary_measure", "volume",
]
