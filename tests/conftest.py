"""Suite-wide pytest hooks."""

import numpy as np

if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
    from numpy._core import _multiarray_umath
else:
    from numpy.core import _multiarray_umath


def pytest_report_header(config):
    # the bit and byte pins hold on one numpy build and one SIMD dispatch
    # path: name both, so a failing pin's log says which path it ran on
    features = _multiarray_umath.__cpu_features__
    on = [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    return f"numpy {np.__version__}, SIMD dispatch: {' '.join(on) or 'baseline only'}"
