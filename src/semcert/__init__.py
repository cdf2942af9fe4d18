"""Certified robustness of smoothed classifiers to semantic image transforms.

Closed-form robust radii for parameter-smoothable transforms (Gaussian
blur, brightness/contrast, translation), rigorous interpolation-aliasing
bounds plus progressive sampling for rotation and scaling, and exact
enumeration for black-padded translation.
"""

from .aliasing import (AliasingBound, ConfigurationError, IntervalGrid,
                       aliasing_bound, grid_pixel_trajectory, max_color_stats,
                       rotation_interval_lipschitz, scaling_discontinuities,
                       scaling_interval_lipschitz)
from .classifiers import (ConstantClassifier, LinearClassifier, MeanThresholdClassifier,
                          analytic_smoothed_confidence)
from .pipeline import (CertificationResult, ParameterSet, certify_bc_rectangle,
                       certify_diff_resolvable, certify_resolvable,
                       certify_translation_enum, robust_accuracy_report)
from .radii import (ConfidencePair, DistributionSpec, RadiusResult, bc_condition,
                    bc_confidence_shift, closed_form_radius)
from .smoothing import (ABSTAIN, BaseClassifier, SmoothedQuery, certify, predict,
                        progressive_certify, sample_counts)
from .statfn import (ConfidenceParams, binom_two_sided_p, clopper_pearson_lower,
                     std_normal_cdf, std_normal_quantile)
from .tensor import ImageTensor, bilinear, l2_distance
from .transforms import (Transform, additive_pixel_transform, brightness_contrast,
                         gaussian_blur, rotate, scale, transform_spec, translate)

__version__ = "0.1.0"
