"""Test session set-up.

``ucp2d`` is imported before any test module loads numpy, so its default
of one BLAS thread (``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS`` set
to 1 unless the caller set them) holds for the tests as it does for the
``ucp2d`` command: OpenBLAS reads both once, when numpy loads it.
scipy's OpenBLAS reads them when scipy loads, which for the ``ucp2d``
command is at the first null-space solve; test modules that import
scipy themselves do so after this file has run, so they read them too.
"""

import ucp2d  # noqa: F401
