"""Manifold reconstruction from random samples, up to the denoised net.

Ground-truth models (circle, sphere, torus) and their samplers with ambient
outliers, local-PCA tangents, iterative slab denoising, farthest-point nets
and Hausdorff distances.  The package holds only the estimator, the models
and their I/O.  The tangential Delaunay complex and a pipeline entry point
do not exist yet.
"""

__version__ = "0.1.0"
