"""Feature matrix built one candidate column at a time.

Column i holds candidate i's parity on each sample row: the product of the
subset's coordinates, times the label coordinate (the last one) for parity
learning. Each column is one fancy index and one product, and the columns are
stacked; an empty candidate list gives an n x 0 matrix. Tests check that the
package's single gather returns the same int64 matrix.
"""

import numpy as np


def feature_matrix_by_columns(problem: str, d: int, cands: list, samples) -> np.ndarray:
    x = np.atleast_2d(np.asarray(samples, dtype=np.int64))
    label = [d] if problem == "parity-learning" else []
    cols = []
    for subset in cands:
        idx = [j - 1 for j in subset] + label
        cols.append(x[:, idx].prod(axis=1) if idx else np.ones(x.shape[0], dtype=np.int64))
    return np.column_stack(cols) if cols else np.empty((x.shape[0], 0), dtype=np.int64)
