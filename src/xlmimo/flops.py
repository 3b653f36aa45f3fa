"""Closed-form flop counts for each solve of a K x K regularized Gram system.

Counts mix real and complex operations as in the cost model the figures use:
direct inversion via Cholesky, GS/JOR fixed-point sweeps, CG, and CG with a
Jacobi preconditioner (one extra preprocessing charge per solve).  The flops
table compares them over the paper's fixed user grid `K_GRID`.
"""

from dataclasses import dataclass

from .errors import ConfigurationError
from .linsolve import METHODS

K_GRID = (5, 10, 15, 20, 25, 30)  # user counts K of the flops table


@dataclass(frozen=True)
class FlopModel:
    T: int
    init_flops: int
    per_iter_flops: int

    @property
    def total_flops(self) -> int:
        return self.init_flops + self.T * self.per_iter_flops


def _sweep_flops(K: int) -> int:
    # Dense w <- A w + b costs 8K^2; the zero first column saves 8K.
    return 8 * K ** 2 - 8 * K


def _cg_iteration_flops(K: int) -> int:
    return 8 * K ** 2 + 46 * K - 6


# method -> K -> (init flops, per-iteration flops) of one K x K solve.
# flops_direct and flops_jacpcg below document theirs; gs is a
# forward-substitution initialization plus T sweeps, jor a diagonal-scaling
# initialization plus T sweeps, and cg T iterations at 8K^2 + 46K - 6 flops.
_FLOPS = {
    "direct": lambda K: (4 * K ** 3 + K - 1, 0),
    "gs": lambda K: (4 * K ** 3 - 3 * K ** 2 + K, _sweep_flops(K)),
    "jor": lambda K: (2 * K ** 2 + K + 1, _sweep_flops(K)),
    "cg": lambda K: (0, _cg_iteration_flops(K)),
    "jacpcg": lambda K: (4 * K ** 2 + 2 * K, _cg_iteration_flops(K)),
}


def flop_model(method: str, K: int, T: int = 1) -> FlopModel:
    """Structured init/per-iteration breakdown for one method."""
    if K < 1:
        raise ConfigurationError(f"dimension K must be >= 1, got {K}")
    if T < 1:
        raise ConfigurationError(f"iteration count T must be >= 1, got {T}")
    if method not in _FLOPS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {METHODS}")
    init, per_iter = _FLOPS[method](K)
    return FlopModel(T, init_flops=init, per_iter_flops=per_iter)


def flops_direct(K: int) -> int:
    """Cholesky factor + triangular inverse + product: 4K^3 + K - 1."""
    return flop_model("direct", K).total_flops


def flops_jacpcg(K: int, T: int) -> int:
    """CG cost plus one diagonal-preconditioning pass of 4K^2 + 2K flops."""
    return flop_model("jacpcg", K, T).total_flops
