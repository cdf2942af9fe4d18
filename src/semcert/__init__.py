"""Certified robustness of smoothed classifiers to semantic image transforms.

Closed-form robust radii for parameter-smoothable transforms (Gaussian
blur, brightness/contrast, translation), rigorous interpolation-aliasing
bounds plus progressive sampling for rotation and scaling, and exact
enumeration for black-padded translation.
"""

__version__ = "0.1.0"
