"""The node lattice as one array, for tests that check a kernel at every node."""

import numpy as np

from bellband.core import grid_blocks


def grid_points(resolution: int) -> np.ndarray:
    """The uniform resolution^3 node lattice on the positive cube as rows
    (theta1, theta2, theta3) in theta1-major order: the points of
    ``grid_blocks`` put together."""
    return np.concatenate([points for _, points, _ in grid_blocks(resolution)])
