"""Term-by-term oracles for the lattice builders: bonds assembled by
embedding the one-site spin matrices into the pair and multiplying, and the
staggered-field Ising interaction on a finite window built from them.  The
tests compare ``heisenberg_bond``, ``ising_staggered_ti`` and the
finite-volume code against these, so they share no assembly with the
library."""

import numpy as np

from kmsbounds.lattice import (
    InteractionFamily,
    LocalOperator,
    _bonds,
    embed,
    graph_distance,
    spin_matrices,
)
from kmsbounds.ti import FloatRangeError, Region


def bond_product(s, d, x, y):
    """S_x S_y on the bond {x, y} for the single-site matrix ``s``."""
    reg = Region.of([x, y])
    left = embed(LocalOperator(Region((tuple(x),)), s, d), reg)
    right = embed(LocalOperator(Region((tuple(y),)), s, d), reg)
    return left @ right


def embedded_heisenberg_bond(rep, delta):
    """delta (S1 S1 + S2 S2) + S3 S3 on the bond {(0,), (1,)}, summed term by
    term from a zero operator; ``FloatRangeError`` when an entry overflows."""
    s1, s2, s3 = spin_matrices(rep)
    acc = LocalOperator.zero(Region(((0,), (1,))), rep.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, w in ((s1, delta), (s2, delta), (s3, 1.0)):
            acc = acc + w * bond_product(s.matrix, rep.dim, (0,), (1,))
    if not np.isfinite(acc.matrix).all():
        raise FloatRangeError(f"the Heisenberg bond at delta = {delta} overflows")
    return acc.matrix


def build_ising_staggered(coupling, field, rep, window):
    """Ising bonds J S3 S3 plus a staggered field (-1)^{d(x,0)} B S3, where d
    is the graph distance to the origin."""
    _, _, s3 = spin_matrices(rep)
    origin = tuple(0 for _ in next(iter(window), (0,)))
    terms = {}
    for x, y in _bonds(window):
        bond = bond_product(s3.matrix, rep.dim, x, y)
        terms[bond.region] = coupling * bond
    if field != 0.0:
        for x in window:
            sign = -1.0 if graph_distance(x, origin) % 2 else 1.0
            reg = Region((x,))
            terms[reg] = LocalOperator(reg, sign * field * s3.matrix, rep.dim)
    return InteractionFamily(terms, rep.dim)
