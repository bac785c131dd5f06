"""Manifold reconstruction from random samples, up to the denoised net.

Ground-truth models (the round d-sphere for d = 1, 2, 3, the circle being
d = 1, and the torus) and their samplers with ambient outliers, local-PCA
tangents, iterative slab denoising, farthest-point nets and Hausdorff
distances.  The package holds only the estimator, the models and their I/O.
The tangential Delaunay complex and a pipeline entry point do not exist yet.
"""

__version__ = "0.1.0"
