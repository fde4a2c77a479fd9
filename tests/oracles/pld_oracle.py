"""The composed privacy-loss reading by one FFT over the whole support of the sum.

The d-fold sum of losses rounded up to a grid step h spans d times the single
law's grid, so an FFT at least that long composes it with no wrap-around and
no tail left out.
"""

import numpy as np


def full_length_reading(losses: np.ndarray, weights: np.ndarray, epsilon: float, d: int,
                        step: float) -> float:
    """The mean of ``(1 - e^(eps - S))_+``, S the d-fold sum of the losses rounded up to
    ``step``."""
    grid = np.ceil(losses / step).astype(np.int64)
    single = np.bincount(grid - grid.min(), weights)
    span = d * (len(single) - 1) + 1
    size = 1 << (span - 1).bit_length()
    law = np.fft.irfft(np.fft.rfft(single, size) ** d, size)[:span]
    values = step * (d * grid.min() + np.arange(span))
    above = values > epsilon
    return float(law[above] @ -np.expm1(epsilon - values[above]))
