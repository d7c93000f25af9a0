"""Reader of the trajectory CSV that mpc.emit_trajectory writes."""

import csv

import numpy as np


def read_trajectory(path) -> tuple[list[str], np.ndarray]:
    """Parse an emitted CSV back into (header, data matrix)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data
