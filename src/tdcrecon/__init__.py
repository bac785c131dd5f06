"""Manifold reconstruction from random samples, up to the denoised net.

Ground-truth models (circle, sphere, torus) and their samplers with ambient
outliers, local-PCA tangents, iterative slab denoising, farthest-point nets
and Hausdorff distances.  The Monte-Carlo checks of the paper's lemmas live
apart from the estimator, in :mod:`tdcrecon.checks`.  The tangential Delaunay
complex and a pipeline entry point do not exist yet.
"""

__version__ = "0.1.0"
