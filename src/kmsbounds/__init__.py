"""Subcritical inverse-temperature bounds for quantum and classical spin
lattice systems, plus finite-volume verification of every algebraic
ingredient behind them: the centered decomposition of local observables,
interaction-picture (Dyson) expansions, the KMS condition for finite Gibbs
states, and the Kirkwood-Salzburg-type linear equation.

The package root exports only ``__version__``; import the modules by name.
``lattice``, ``norms`` and ``bounds`` compute the thresholds; ``centering``,
``quantum``, ``classical`` and ``verify`` check their algebra in finite
volume, and the CLI loads them only to run a suite."""

__version__ = "0.1.0"
