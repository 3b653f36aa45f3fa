"""Closed-form flop counts for each solve of a K x K regularized Gram system.

Counts mix real and complex operations as in the cost model the figures use:
direct inversion via Cholesky, GS/JOR fixed-point sweeps, CG, and CG with a
Jacobi preconditioner (one extra preprocessing charge per solve).
"""

from dataclasses import dataclass

from .errors import ConfigurationError
from .linsolve import METHODS


@dataclass(frozen=True)
class FlopModel:
    method: str
    K_l: int
    T: int
    init_flops: int
    per_iter_flops: int

    @property
    def total_flops(self) -> int:
        return self.init_flops + self.T * self.per_iter_flops


def _check(K: int, T: int = 1) -> None:
    if K < 1:
        raise ConfigurationError(f"dimension K must be >= 1, got {K}")
    if T < 1:
        raise ConfigurationError(f"iteration count T must be >= 1, got {T}")


def flops_direct(K: int) -> int:
    """Cholesky factor + triangular inverse + product: 4K^3 + K - 1."""
    _check(K)
    return 4 * K ** 3 + K - 1


def _sweep_flops(K: int) -> int:
    # Dense w <- A w + b costs 8K^2; the zero first column saves 8K.
    return 8 * K ** 2 - 8 * K


def flops_gs(K: int, T: int) -> int:
    """Forward-substitution initialization plus T sweeps."""
    _check(K, T)
    init = 4 * K ** 3 - 3 * K ** 2 + K
    return init + T * _sweep_flops(K)


def flops_jor(K: int, T: int) -> int:
    """Diagonal-scaling initialization plus T sweeps."""
    _check(K, T)
    init = 2 * K ** 2 + K + 1
    return init + T * _sweep_flops(K)


def flops_cg(K: int, T: int) -> int:
    """T CG iterations at 8K^2 + 46K - 6 flops each."""
    _check(K, T)
    return T * (8 * K ** 2 + 46 * K - 6)


def flops_jacpcg(K: int, T: int) -> int:
    """CG cost plus one diagonal-preconditioning pass of 4K^2 + 2K flops."""
    _check(K, T)
    return flops_cg(K, T) + (4 * K ** 2 + 2 * K)


def flop_model(method: str, K: int, T: int = 1) -> FlopModel:
    """Structured init/per-iteration breakdown for one method."""
    _check(K, T)
    if method == "direct":
        return FlopModel(method, K, T, init_flops=flops_direct(K), per_iter_flops=0)
    if method == "gs":
        return FlopModel(method, K, T, init_flops=4 * K ** 3 - 3 * K ** 2 + K,
                         per_iter_flops=_sweep_flops(K))
    if method == "jor":
        return FlopModel(method, K, T, init_flops=2 * K ** 2 + K + 1,
                         per_iter_flops=_sweep_flops(K))
    if method == "cg":
        return FlopModel(method, K, T, init_flops=0,
                         per_iter_flops=8 * K ** 2 + 46 * K - 6)
    if method == "jacpcg":
        return FlopModel(method, K, T, init_flops=4 * K ** 2 + 2 * K,
                         per_iter_flops=8 * K ** 2 + 46 * K - 6)
    raise ConfigurationError(
        f"unknown method {method!r}; expected one of {METHODS}")
