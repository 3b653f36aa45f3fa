"""RZF precoding per channel block, direct or via the iterative solvers.

Each block i gets G_i = beta_i F_i with F_i = H_i W_i, where W_i solves
P_i W_i = I, P_i = H_i^H H_i + xi I, and beta_i enforcing tr(G_i^H G_i) =
power.  Every method solves with one right-hand side per user, so per-user
precoding vectors exist for the SINR evaluation; beta is computed from the
(possibly approximate) solution.  Blocks may carry leading trial dimensions
(..., M_i, K_i): one call then precodes a stack of trials.

After the Gram nothing touches M.  With A_i = H_i^H H_i W_i = H_i^H F_i,
formed from the unregularized Gram, tr(F_i^H F_i) = Re <W_i, A_i>, and the
coupling block that the SINR reads is H_i^H G_i = beta_i A_i.
`BlockPrecoder` holds the coupling blocks and forms the M x K blocks G_i
only when they are read.

A user outside block i's visibility region has a zero column in H_i, so its
row and column of P_i are xi e_k: it decouples from the other users, and
its precoder column is zero.  So each system, one block of one trial,
solves only for its visible users, in order, padded with its own dead users
up to its size class: the next multiple of `CLASS_STEP`, at least
`CLASS_STEP` and at most K_i.  BLAS and LAPACK rounding depends on the
matrix size, and a system's class depends on that system alone, so a trial
rounds the same in every batch; one size for a whole batch would not.

`precode_each` makes one pass for several methods: one Gram H_i^H H_i per
block, as drawn and without xi, then one `HpdSystem` per size class, holding
that class's systems of every block and trial with xi I added and shared by
all methods, and one solve per class and method.  The Gram is never undone:
at low SNR, xi far above ||H_i^H H_i||, subtracting xi I again would cancel
H_i^H H_i away.  A stacked system rounds as if solved alone, so the
precoders equal those of a solve per block and trial.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .channel import check_blocks, stack_blocks
from .errors import ConfigurationError, DegenerateChannelError
from .linsolve import DEFAULT_OMEGA, DEFAULT_T, HpdSystem, herm, solve

CLASS_STEP = 8
"""The size classes of the visible-user systems are multiples of this."""


@dataclass(frozen=True)
class BlockPrecoder:
    """Stacked precoder for the S=3, L=2 topology with per-block power control.

    Holds the coupling blocks C_i = H_i^H G_i, (..., K_i, K_i), each already
    scaled by its beta_i, and `blocks`, which returns the precoder blocks
    (G1, Gc, G2), (..., M_i, K_i), on the first read of one of them.
    """

    C1: np.ndarray
    Cc: np.ndarray
    C2: np.ndarray
    blocks: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        check_blocks(self.C1, self.Cc, self.C2)

    @cached_property
    def _G(self) -> tuple:
        return tuple(self.blocks())

    @property
    def G1(self) -> np.ndarray:
        return self._G[0]

    @property
    def Gc(self) -> np.ndarray:
        return self._G[1]

    @property
    def G2(self) -> np.ndarray:
        return self._G[2]

    @cached_property
    def G(self) -> np.ndarray:
        """(..., M, K) stacked precoder with exact zero blocks, built on first use."""
        return stack_blocks(*self._G)


def _gram(H: np.ndarray) -> np.ndarray:
    """H^H H per trial, symmetrized: (..., M, K) complex -> (..., K, K)."""
    S = herm(H) @ H
    return (S + herm(S)) / 2.0


def gram_regularized(H: np.ndarray, xi: float) -> np.ndarray:
    """P = H^H H + xi I per trial, symmetrized: (..., M, K) -> (..., K, K)."""
    if not 0 < xi < np.inf:
        raise ConfigurationError(f"xi must be positive and finite, got {xi}")
    H = np.asarray(H, dtype=complex)
    return _gram(H) + xi * np.eye(H.shape[-1])


@dataclass(frozen=True)
class _SizeClass:
    """The systems of one size class n, each on n users of its block."""

    sys: HpdSystem       # (S, n, n) H^H H + xi I on the users, rhs I
    gram: np.ndarray     # (S, n, n) the Grams H^H H it was built from
    # Per block with systems in the class: (block, its systems, their (s, n)
    # users, the (s, n, n) flat indices of their Gram entries in the block's
    # (systems, K_i, K_i) stack, their rows of the class).
    members: tuple


def precode_each(realization, xi: float, power: float, methods, T: int,
                 omega: float, consume) -> dict:
    """{method: consume(precoder)} for each of `methods` on a realization (or
    a stack of them).  Each precoder is consumed before the next is built.

    Raises `DegenerateChannelError` when every block of some trial carries
    no energy.
    """
    if not 0 < xi < np.inf:
        raise ConfigurationError(f"xi must be positive and finite, got {xi}")
    if not 0 < power < np.inf:
        raise ConfigurationError(f"power must be positive and finite, got {power}")
    lead = realization.Hc.shape[:-2]
    # The blocks with their systems on one axis: (systems, M_i, K_i).
    Hs = [np.asarray(H, dtype=complex).reshape(-1, *H.shape[-2:])
          for H in realization.blocks()]
    classes = _size_classes(Hs, xi)
    return {m: consume(_precoder(Hs, classes, lead, power, m, T, omega))
            for m in methods}


def _size_classes(Hs, xi) -> list:
    """The size classes of the blocks' systems, smallest first.  The full
    Grams are released on return: the classes hold what they need."""
    grams, sizes, users = [], [], []
    for H in Hs:
        grams.append(_gram(H))
        visible = np.any(H, axis=-2)
        count = np.count_nonzero(visible, axis=-1)
        steps = -(-count // CLASS_STEP)
        sizes.append(np.minimum(H.shape[-1], CLASS_STEP * np.maximum(steps, 1)))
        # Each system's visible users in order, then its dead users in order:
        # user k goes to place rank[k].  (A stable argsort gives the same
        # order, but its first call maps 64 KiB more of numpy's code.)
        rank = np.where(visible, np.cumsum(visible, axis=-1),
                        count[:, None] + np.cumsum(~visible, axis=-1)) - 1
        order = np.empty_like(rank)
        order[np.arange(len(rank))[:, None], rank] = np.arange(rank.shape[-1])
        users.append(order)
    return [_size_class(n, xi, grams, sizes, users)
            for n in sorted(set(np.concatenate(sizes).tolist()))]


def _size_class(n, xi, grams, sizes, users) -> _SizeClass:
    """The size class n: every system of that size, on its first n users."""
    members, parts, rows = [], [], 0
    for g, (S, size, order) in enumerate(zip(grams, sizes, users)):
        sel = np.flatnonzero(size == n)
        if sel.size:
            idx = order[sel, :n]
            K = S.shape[-1]
            flat = (sel[:, None, None] * K + idx[:, :, None]) * K + idx[:, None, :]
            members.append((g, sel, idx, flat, slice(rows, rows + sel.size)))
            parts.append(np.take(S, flat))
            rows += sel.size
    S = np.concatenate(parts) if len(parts) > 1 else parts[0]
    eye = np.eye(n, dtype=complex)
    P = S + xi * eye
    return _SizeClass(sys=HpdSystem(P=P, rhs=np.broadcast_to(eye, P.shape)),
                      gram=S, members=tuple(members))


def _class_solve(c, power, method, T, omega) -> tuple:
    """(W, A, beta) of the size class c: the solve W, A = H^H H W and
    beta = sqrt(power / tr(F^H F)) with tr(F^H F) = Re <W, A>.  A system
    with no energy (every user it serves sees none of its block's antennas)
    has tr = 0 and gets beta = 0."""
    W = solve(c.sys, method, T, omega, trace=False).w
    A = c.gram @ W
    tr = np.vecdot(W.reshape(len(W), -1), A.reshape(len(A), -1)).real
    live = tr > 0
    return W, A, np.where(live, np.sqrt(power / np.where(live, tr, 1.0)), 0.0)


def _precoder(Hs, classes, lead, power, method, T, omega) -> BlockPrecoder:
    """One method's precoder: per size class, beta A scattered into the
    coupling blocks.  G is left to `_blocks`, which solves again when read,
    so no solve outlives its class's turn."""
    couplings = [np.zeros((len(H), H.shape[-1], H.shape[-1]), dtype=complex)
                 for H in Hs]
    live = [np.zeros(len(H), dtype=bool) for H in Hs]
    for c in classes:
        _, A, beta = _class_solve(c, power, method, T, omega)
        A *= beta[:, None, None]
        for g, sel, _, flat, rows in c.members:
            couplings[g].reshape(-1)[flat] = A[rows]
            live[g][sel] = beta[rows] > 0
    if not np.all(np.logical_or.reduce(live)):
        raise DegenerateChannelError(
            "tr(F^H F) = 0 in every block; the channel carries no energy")
    C1, Cc, C2 = (C.reshape(*lead, *C.shape[-2:]) for C in couplings)
    return BlockPrecoder(C1, Cc, C2, blocks=partial(
        _blocks, Hs, classes, lead, power, method, T, omega))


def _blocks(Hs, classes, lead, power, method, T, omega) -> tuple:
    """(G1, Gc, G2): G = beta H W on each system's class users, zero on the
    columns of the users it leaves out."""
    G = [np.zeros(H.shape, dtype=complex) for H in Hs]
    for c in classes:
        W, _, beta = _class_solve(c, power, method, T, omega)
        for g, sel, idx, _, rows in c.members:
            H = np.take_along_axis(Hs[g][sel], idx[:, None, :], axis=-1)
            F = H @ W[rows]
            F *= beta[rows, None, None]
            G[g][sel[:, None], :, idx] = np.swapaxes(F, -1, -2)
    return tuple(B.reshape(*lead, *B.shape[-2:]) for B in G)


def build_precoder(realization, xi: float, power: float, method: str,
                   T: int = DEFAULT_T,
                   omega: float = DEFAULT_OMEGA) -> BlockPrecoder:
    """All three blocks of Eq.-6 structure for a realization (or a stack of
    them): the pass of `precode_each` for one method."""
    return precode_each(realization, xi, power, (method,), T, omega,
                        lambda pre: pre)[method]
