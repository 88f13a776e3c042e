"""Integrable lattice hierarchies of nonlinear-Schrodinger type.

Two space discretizations are implemented side by side: the additive
spectral-parameter lattice (``dnls``) and the multiplicative one (``al``),
each with Lax pairs, explicit flow equations, numerical evolution, and
exact zero-curvature diagnostics, all built on one shared core
(``lattice``).  Solutions come from closed-form gauge
(Darboux) constructions (``darboux``), from the oscillator-type recursion
(``al``), and from a discrete triangular-factorization method (``glm``).
Conserved quantities live in ``conserved``; the logarithmic lattice map and
continuum checks in ``colehopf``; end-to-end machine verification in
``verification``; the command-line front end in ``cli``.
"""

from . import al, algebra, colehopf, conserved, darboux, dnls, errors, glm, lattice, verification
from .algebra import RankOnePair, dense_solve, make_rank_one_pair
from .al import AlDarbouxParams, AlState
from .darboux import LinearSolution, SolitonParams
from .dnls import DnlsState

__version__ = "0.1.0"

__all__ = [
    "al",
    "algebra",
    "colehopf",
    "conserved",
    "darboux",
    "dnls",
    "errors",
    "glm",
    "lattice",
    "verification",
    "RankOnePair",
    "dense_solve",
    "make_rank_one_pair",
    "AlDarbouxParams",
    "AlState",
    "LinearSolution",
    "SolitonParams",
    "DnlsState",
    "__version__",
]
