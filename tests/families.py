"""Synthetic modal families: given trajectories and arbitrary trace vectors
on modes labelled 0.., with factors 1 and z'(0) = 0."""

import numpy as np

from visco_inverse import ModalFamily, ModeArrays


def synthetic_family(grid, trajectories, psis) -> ModalFamily:
    """The members trajectories[n] * psis[n]; ``trajectories`` is the storage
    (``LeafTables`` or ``StoredRows``) that ``ModalFamily`` takes."""
    psis = np.asarray(psis)
    n = len(psis)
    modes = ModeArrays(np.arange(n), np.zeros(n), np.zeros(n), psis, np.zeros(n, bool))
    return ModalFamily(modes, grid, trajectories, np.ones(n, complex), np.zeros(n, complex))
