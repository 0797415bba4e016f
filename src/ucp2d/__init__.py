"""Verification toolkit for point-data unique continuation in 2D
anisotropic elasticity.

Pipeline: audit the coefficient tensor (ellipticity, convexity,
hyperbolicity discriminant, pencil eigenpairs), reduce the system under a
vanishing first displacement component to an overdetermined
hyperbolic-elliptic pair, pass to characteristic coordinates, represent
solutions through the Riemann function, and estimate the dimension of
the local solution family of the pair.
"""

import os

# One BLAS thread unless the caller chose: numpy's and scipy's OpenBLAS each
# read these once, when they load: numpy's with this package, and scipy's
# later, at the first null-space solve (the only code that imports scipy).
# On a 2-core VM the 78 window QRs of lame_constant's n = 33 null-space
# factor took 0.02 s on two threads and 0.01 s on one (one run each), and
# one thread count makes reports byte-identical across such machines.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ucp2d.fields import ScalarField, parse, evaluate, differentiate  # noqa: E402

__version__ = "0.1.0"

__all__ = ["ScalarField", "parse", "evaluate", "differentiate", "__version__"]
