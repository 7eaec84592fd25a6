"""The staggered-field Ising interaction on a finite window, term by term:
the finite-family oracle that the tests compare ``ising_staggered_ti`` and
the finite-volume code against."""

from kmsbounds.lattice import (
    InteractionFamily,
    LocalOperator,
    Region,
    _bond_product,
    _bonds,
    graph_distance,
    spin_matrices,
)


def build_ising_staggered(coupling, field, rep, window):
    """Ising bonds J S3 S3 plus a staggered field (-1)^{d(x,0)} B S3, where d
    is the graph distance to the origin."""
    _, _, s3 = spin_matrices(rep)
    origin = tuple(0 for _ in next(iter(window), (0,)))
    terms = {}
    for x, y in _bonds(window):
        bond = _bond_product(s3.matrix, rep.dim, x, y)
        terms[bond.region] = coupling * bond
    if field != 0.0:
        for x in window:
            sign = -1.0 if graph_distance(x, origin) % 2 else 1.0
            reg = Region((x,))
            terms[reg] = LocalOperator(reg, sign * field * s3.matrix, rep.dim)
    return InteractionFamily(terms, rep.dim)
