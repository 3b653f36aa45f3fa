"""RZF precoding per channel block, direct or via the iterative solvers.

Each block i gets G_i = beta_i F_i with F_i = H_i W_i, where W_i solves
P_i W_i = I, P_i = H_i^H H_i + xi I, and beta_i enforcing tr(G_i^H G_i) =
power.  Every method solves with one right-hand side per user, so per-user
precoding vectors exist for the SINR evaluation; beta is computed from the
(possibly approximate) solution.  Blocks may carry leading trial dimensions
(..., M_i, K_i): one call then precodes a stack of trials.

After the Gram no step of a pipeline's pass touches M.  With A_i =
H_i^H H_i W_i = H_i^H F_i, formed from the unregularized Gram,
tr(F_i^H F_i) = Re <W_i, A_i>, and block i's coupling H_i^H G_i is
beta_i A_i.  The SINR and the BER chain read one K x K gain matrix per
trial, B = H^H G, the central coupling plus each side one on its group's
users.  `BlockPrecoder` holds B, and the M x K blocks G_i only when it was
built from the channel blocks.

A user outside block i's visibility region has a zero column in H_i, so its
row and column of P_i are xi e_k: it decouples from the other users, and
its precoder column is zero.  So each system, one block of one trial,
solves only for its visible users, in order, padded with its own dead users
up to its size class: the next multiple of `CLASS_STEP`, at least
`CLASS_STEP` and at most K_i.  BLAS and LAPACK rounding depends on the
matrix size, and a system's class depends on that system alone, so a trial
rounds the same in every batch; one size for a whole batch would not.

A precoder pass reads only a `GramStack`: one Gram H_i^H H_i per block,
as drawn and without xi, and the block's visible users, with every system
on one trial-major axis: row 3 t + i is block i of trial t, its Gram and
visible-user mask zero-padded with dead users up to K.  A pipeline reduces
each drawn sub-batch to its `GramStack` at once, releases the blocks and
hands the pass the sub-batches' stacks, which it joins (`concat_grams`) and
drops once its size classes are cut, so its pass holds no M x K array and
no Gram stack past the classes.  `precode_each` makes one pass for several
methods.  A padded user sits past its block's K_i, which no class exceeds,
so it never enters a class.  A size class is rows of that stack, each
with its n users; its `HpdSystem`, with xi I added, is shared by all
methods, and each method solves once per class.  The coupling blocks are scattered into a stack of
the same layout, and each trial's side rows are added onto its central
row, which is B.  `build_precoder` alone passes its realization's blocks,
so its pass also forms G from the same solves.  The Gram is never undone: at low SNR, xi far above
||H_i^H H_i||, subtracting xi I again would cancel H_i^H H_i away.  A
stacked system rounds as if solved alone, so the precoders equal those of
a solve per block and trial, whichever trials share the stack.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import check_blocks, stack_blocks
from .errors import (ConfigurationError, DegenerateChannelError,
                     NonFiniteError)
from .linsolve import DEFAULT_OMEGA, DEFAULT_T, HpdSystem, herm, solve

CLASS_STEP = 8
"""The size classes of the visible-user systems are multiples of this."""


@dataclass(frozen=True)
class BlockPrecoder:
    """Stacked precoder for the S=3, L=2 topology with per-block power control.

    Holds the gain matrix B = H^H G, (..., K, K), B[k, j] the gain from
    symbol j to user k: the central coupling block H_c^H G_c over every
    user plus each side block H_i^H G_i over its group's users.  When built
    from the channel blocks (`build_precoder`) it also holds the precoder
    blocks G1, Gc, G2, (..., M_i, K_i).
    """

    B: np.ndarray
    G1: np.ndarray | None = None
    Gc: np.ndarray | None = None
    G2: np.ndarray | None = None

    def __post_init__(self):
        if self.G1 is not None:
            check_blocks(self.G1, self.Gc, self.G2)

    @cached_property
    def G(self) -> np.ndarray:
        """(..., M, K) stacked precoder with exact zero blocks, built on first use."""
        if self.G1 is None:
            raise ConfigurationError(
                "G needs the channel blocks, which a pass over a GramStack "
                "alone does not keep: build the precoder with build_precoder")
        return stack_blocks(self.G1, self.Gc, self.G2)


def _gram(H: np.ndarray) -> np.ndarray:
    """H^H H per trial, symmetrized in place: (..., M, K) -> (..., K, K)."""
    S = herm(H) @ H
    return np.divide(np.add(S, herm(S), out=S), 2.0, out=S)


def gram_regularized(H: np.ndarray, xi: float) -> np.ndarray:
    """P = H^H H + xi I per trial, symmetrized: (..., M, K) -> (..., K, K)."""
    if not 0 < xi < np.inf:
        raise ConfigurationError(f"xi must be positive and finite, got {xi}")
    H = np.asarray(H, dtype=complex)
    return _gram(H) + xi * np.eye(H.shape[-1])


@dataclass(frozen=True)
class GramStack:
    """What a precoder pass reads of a realization (or a stack of B of
    them): per system, row 3 t + i for block i of trial t, the Gram
    H_i^H H_i without xi and the users that see the block, both zero-padded
    with dead users up to K.  The side blocks serve K/2 users each (S = 3,
    L = 2), so K sets every block's K_i."""

    gram: np.ndarray     # (3 B, K, K) complex
    visible: np.ndarray  # (3 B, K) bool
    lead: tuple          # the realization's trial dimensions

    @property
    def K(self) -> int:
        return self.gram.shape[-1]

    @property
    def K1(self) -> int:
        return self.K // 2

    @property
    def sizes(self) -> tuple:
        """K_i of the blocks: side, central, side."""
        return self.K1, self.K, self.K1


def gram_stack(realization) -> GramStack:
    """The `GramStack` of a realization (or a stack of them): one Gram per
    block, as drawn."""
    blocks = [np.asarray(H, dtype=complex) for H in realization.blocks()]
    return GramStack(gram=_stack([_gram(H) for H in blocks], 2),
                     visible=_stack([np.any(H, axis=-2) for H in blocks], 1,
                                    bool),
                     lead=blocks[1].shape[:-2])


def concat_grams(parts) -> GramStack:
    """The `GramStack`s of consecutive stacks of trials, each with one trial
    axis, as one, in order."""
    return GramStack(gram=np.concatenate([p.gram for p in parts]),
                     visible=np.concatenate([p.visible for p in parts]),
                     lead=(sum(p.lead[0] for p in parts),))


@dataclass(frozen=True)
class _SizeClass:
    """The systems of one size class n: rows of the batch's system stack,
    each on n users of its block."""

    rows: np.ndarray     # (s,) the systems' rows of the stack
    users: np.ndarray    # (s, n) each system's visible users, then dead ones
    gram: np.ndarray     # (s, n, n) the Grams H^H H on those users
    sys: HpdSystem       # (s, n, n) gram + xi I, rhs I


def precode_each(grams: GramStack | list, xi: float, power: float, methods,
                 T: int, omega: float, consume, blocks=None) -> dict:
    """{method: consume(precoder)} for each of `methods` on a `GramStack`.
    Each precoder is consumed before the next is built.  With `blocks`,
    the channel blocks that `grams` reduces, each pass also forms the
    precoder's G blocks; without them reading G raises
    `ConfigurationError`.

    `grams` may also be a list of the `GramStack`s of consecutive stacks of
    trials, which the pass joins and empties (`take_joined`).  Then it holds
    the joined stack only until its size classes are cut: each class holds
    its own Grams, and nothing later reads the stack.

    Raises `DegenerateChannelError` when every block of some trial carries
    no energy.
    """
    if not 0 < xi < np.inf:
        raise ConfigurationError(f"xi must be positive and finite, got {xi}")
    if not 0 < power < np.inf:
        raise ConfigurationError(f"power must be positive and finite, got {power}")
    if isinstance(grams, list):
        grams = take_joined(grams, concat_grams)
    classes = _size_classes(grams, xi)
    visible, lead = grams.visible, grams.lead
    del grams  # not held past the classes
    return {m: consume(_precoder(visible, lead, classes, power, m, T, omega,
                                 blocks))
            for m in methods}


def take_joined(parts: list, join):
    """The reductions `parts` of consecutive sub-batches joined in order by
    `join`, and the list emptied, so that only the caller holds them."""
    joined = parts[0] if len(parts) == 1 else join(parts)
    parts.clear()
    return joined


def _stack(arrays, dims: int, dtype=complex) -> np.ndarray:
    """The blocks' arrays (..., *shape_i), shape_i their last `dims` axes, on
    one system axis: row 3 t + i is block i of trial t, zero-padded up to
    the largest shape_i."""
    shape = np.max([a.shape[-dims:] for a in arrays], axis=0)
    out = np.zeros((*arrays[0].shape[:-dims], len(arrays), *shape), dtype)
    for i, a in enumerate(arrays):
        out[(..., i, *map(slice, a.shape[-dims:]))] = a
    return out.reshape(-1, *shape)


def _cut(stack, shapes) -> tuple:
    """The blocks' arrays of `shapes` (..., a_i, b_i) out of a stack that
    `_stack` lays out."""
    trials = stack.reshape(-1, len(shapes), *stack.shape[1:])
    return tuple(trials[:, i, :s[-2], :s[-1]].reshape(s)
                 for i, s in enumerate(shapes))


def _size_classes(grams, xi) -> list:
    """The size classes of the stack's systems, smallest first."""
    count = np.count_nonzero(grams.visible, axis=-1)
    K = np.tile(grams.sizes, len(count) // len(grams.sizes))
    sizes = np.minimum(K, CLASS_STEP * np.maximum(-(-count // CLASS_STEP), 1))
    # Each system's visible users in order, then its dead users in order.
    # The padded users, past its block's K_i, come last, and no class
    # reaches them.
    order = np.argsort(~grams.visible, axis=-1, kind="stable")
    # Not np.unique: its first call imports numpy.ma (1.1 MB traced).
    return [_size_class(grams.gram, np.flatnonzero(sizes == n), order, n, xi)
            for n in sorted(set(sizes.tolist()))]


def _size_class(S, rows, order, n, xi) -> _SizeClass:
    """The systems `rows` of the Gram stack S, each on its first n users."""
    users = order[rows, :n]
    gram = S[rows[:, None, None], users[:, :, None], users[:, None, :]]
    eye = np.eye(n, dtype=complex)
    P = gram + xi * eye
    return _SizeClass(rows=rows, users=users, gram=gram,
                      sys=HpdSystem(P=P, rhs=np.broadcast_to(eye, P.shape)))


def _precoder(visible, lead, classes, power, method, T, omega,
              blocks) -> BlockPrecoder:
    """One method's precoder: per size class, the solve W, A = H^H H W and
    beta = sqrt(power / tr(F^H F)) with tr(F^H F) = Re <W, A>.  A system
    with no energy (every user it serves sees none of its block's antennas)
    has tr = 0 and gets beta = 0; a diverged W, still finite, whose tr or
    beta A is not raises `NonFiniteError`, as `_iterate` does for W.  beta A
    is scattered into the coupling stack, which is formed after the solves,
    their temporaries gone; each trial's side blocks are added onto its
    central one, as B = H^H G sums them, and B is copied out of the stack,
    which is then freed.  With the channel `blocks`, G = beta H W is
    formed from the same W on each system's class users, zero on the
    columns of the users it leaves out."""
    H = None if blocks is None else _stack(blocks, 2)
    G = None if blocks is None else np.zeros_like(H)
    scaled = []
    for c in classes:
        W = solve(c.sys, method, T, omega, trace=False).w
        with np.errstate(over="ignore", invalid="ignore"):
            A = c.gram @ W
            tr = np.vecdot(W.reshape(len(W), -1), A.reshape(len(A), -1)).real
            beta = np.sqrt(power / np.where(tr > 0, tr, np.inf))
            A *= beta[:, None, None]
        if not (np.isfinite(tr).all() and np.isfinite(A).all()):
            raise NonFiniteError(f"{method}: tr(F^H F) or beta A is inf/NaN")
        scaled.append((A, beta > 0))
        if H is not None:
            F = np.take_along_axis(H[c.rows], c.users[:, None, :], axis=-1) @ W
            F *= beta[:, None, None]
            G[c.rows[:, None], :, c.users] = np.swapaxes(F, -1, -2)
        # Not held into the next class's solve.
        del W, tr
    K = visible.shape[-1]
    C = np.zeros((len(visible), K, K), dtype=complex)
    live = np.zeros(len(C), dtype=bool)
    for c, (A, alive) in zip(classes, scaled):
        C[c.rows[:, None, None], c.users[:, :, None], c.users[:, None, :]] = A
        live[c.rows] = alive
    if not np.all(np.any(live.reshape(-1, 3), axis=-1)):
        raise DegenerateChannelError(
            "tr(F^H F) = 0 in every block; the channel carries no energy")
    B, k = C[1::3], K // 2
    B[:, :k, :k] += C[0::3, :k, :k]
    B[:, k:, k:] += C[2::3, :k, :k]
    return BlockPrecoder(B.reshape(lead + B.shape[1:]).copy(), *(
        () if G is None else _cut(G, [b.shape for b in blocks])))


def build_precoder(realization, xi: float, power: float, method: str,
                   T: int = DEFAULT_T,
                   omega: float = DEFAULT_OMEGA) -> BlockPrecoder:
    """All three blocks of Eq.-6 structure for a realization (or a stack of
    them): the pass of `precode_each` for one method on the realization's
    own `GramStack`, which also forms G from its blocks."""
    blocks = [np.asarray(H, dtype=complex) for H in realization.blocks()]
    return precode_each(gram_stack(realization), xi, power, (method,), T,
                        omega, lambda pre: pre, blocks)[method]
