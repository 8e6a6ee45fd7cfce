"""Numerical Grassmannian machinery and a fractal-projection experiment lab."""

from .charts import (Chart, ConditionReport, chart_stability, embed_relative,
                     from_chart, good_basis, good_submatrix, orthonormal_frame,
                     perturb_within, relative_chart, stability_constant, to_chart)
from .errors import (ConfigError, DegeneracyError, InputDomainError,
                     PremiseViolationError, ProjlabError, ResourceBudgetError,
                     SingularityError)
from .fractal import (DimensionEstimate, IFSSpec, PointSample, Similarity,
                      box_dimension, cantor_dust, cantor_middle_thirds,
                      cantor_on_axis, complexity_profile, export_sample,
                      generate, kt_compressor, load_sample,
                      normalize_unit_box, null_compressor,
                      similarity_dimension)
from .grassmann import (AffinePlane, Subspace, contains, from_basis,
                        metric_rho, orthogonal_complement, project_point, sample_uniform)
from .lab import (DirectionRow, ExperimentConfig, SweepResult,
                  exceptional_scan, kaufman_bound, marstrand_sweep,
                  result_csv)
from .matrixkit import (PerturbationBound, cauchy_binet, determinant, inverse,
                        perturbation_inverse_bound, row_submatrix,
                        singular_values, smallest_singular_value,
                        spectral_norm)
from .planegeo import (SpanResult, agreement_precision, fiber_hyperplane,
                       fiber_sample, line_through, span_from_points)

__version__ = "0.1.0"
