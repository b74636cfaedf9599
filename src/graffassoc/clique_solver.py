"""Densest fully-consistent correspondence selection.

Given a symmetric affinity matrix M with unit diagonal, select the binary
indicator u maximizing the density u'Mu / u'u subject to the hard constraint
that no two selected entries have M(i,j) = 0.  The continuous relaxation is
solved on the nonnegative unit sphere with a geometrically growing penalty
on constraint violations, then rounded greedily; the multi-start rule
climbs from all its start sets at once, by steepest ascent on running sums,
and ranks tied candidates by u, never by label.  Each ascent step works on
the working set supp(u) | {gradient > 0}: only its rows of the penalized
matrix are formed (applied off the set only when a Lipschitz bound stops
certifying the gradient there <= 0), and while it spans over half of the
candidates, products come from M and the boolean graph, so no second m x m
float array exists.  The penalty loop stops as soon as a larger penalty can
no longer change u.  An exhaustive oracle is provided for small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Selection",
    "binarize_constraints",
    "solve_densest",
    "brute_force_densest",
    "BRUTE_FORCE_LIMIT",
]

BRUTE_FORCE_LIMIT = 20

_POWER_ITERATIONS = 100  # cap; the power init stops once a step moves u by less than _TOL
_MAX_ITERATIONS = 150  # gradient steps per penalty stage
_TOL = 1e-8  # convergence threshold on iterate change
_INITIAL_PENALTY = 0.25
_PENALTY_GROWTH = 1.6
_BLOCK_ROWS = 64  # validation tiles and penalized products keep temporaries O(_BLOCK_ROWS x m), not m x m
_STARTS = 16  # one-candidate rounding starts, the best-ranked candidates


ROUNDING_RULES = ("greedy_density", "mass_capped")


@dataclass(frozen=True)
class Selection:
    """Solver output: selected candidate indices plus the continuous iterate."""

    indices: tuple[int, ...]
    u: np.ndarray
    objective: float


def _validate_affinity(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"affinity matrix must be square, got {M.shape}")
    if M.size == 0:
        return M
    lo, hi = M.min(), M.max()  # NaN and +-inf show here
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("affinity matrix must be finite")
    t = 2 * _BLOCK_ROWS  # square tiles on and above the diagonal
    for i in range(0, len(M), t):
        for j in range(i, len(M), t):
            mirror = M[j : j + t, i : i + t].T.copy()  # C order, so the subtraction needs no ufunc buffer
            if np.abs(np.subtract(M[i : i + t, j : j + t], mirror, out=mirror), out=mirror).max() > 1e-9:
                raise ValueError("affinity matrix must be symmetric")
    if lo < -1e-12 or hi > 1.0 + 1e-9:
        raise ValueError("affinity entries must lie in [0, 1]")
    if np.max(np.abs(np.diag(M) - 1.0)) > 1e-9:
        raise ValueError("affinity diagonal must be all ones")
    return M


def binarize_constraints(M: np.ndarray) -> np.ndarray:
    """Boolean feasibility graph: any strictly positive weight is an edge."""
    M = np.asarray(M, dtype=float)
    edges = M > 0.0
    if edges.size:
        np.fill_diagonal(edges, True)
    return edges


def _binary_density(M: np.ndarray, indices) -> float:
    idx = np.asarray(indices, dtype=np.intp)
    if not idx.size:
        return 0.0
    return float(M[idx[:, None], idx].sum() / idx.size)


def _power_init(M: np.ndarray) -> np.ndarray:
    m = M.shape[0]
    u = np.full(m, 1.0 / np.sqrt(m))
    for _ in range(_POWER_ITERATIONS):
        v = M @ u
        norm = math.sqrt(v @ v)
        if norm == 0.0:
            break
        v /= norm
        d = v - u
        if math.sqrt(d @ d) < _TOL:
            return v
        u = v
    return u


class _Penalized:
    """Md = (M on edges, -penalty off them), never formed: v @ Md = v @ M - penalty * (sum(v) - v @ edges),
    a block of edge rows where v != 0 cast at a time.  Equal to the formed Md up to rounding if M is 0 off edges."""

    __array_ufunc__ = None  # so that `v @ Md` calls __rmatmul__

    def __init__(self, M: np.ndarray, edges: np.ndarray, penalty: float):
        self.M, self.edges, self.penalty = M, edges, penalty

    def __rmatmul__(self, v: np.ndarray) -> np.ndarray:
        S, B = v.nonzero()[0], max(_BLOCK_ROWS, 2**16 // len(v))  # rows with v_i = 0 add nothing; small m: one block
        on = sum(v[r] @ self.edges[r] for r in (S[i : i + B] for i in range(0, S.size, B)))
        return v @ self.M - self.penalty * (v.sum() - on)


def _penalized_rows(M: np.ndarray, edges: np.ndarray, penalty: float, W: np.ndarray):
    """Rows Md[W, :], block Md[W, W] and column norms |Md[W, i]| of Md, bitwise
    as np.where(edges[W], M[W], -penalty); all of Md, with no norms, once |W| > m/2."""
    if 2 * W.size > M.shape[0]:
        Md = _Penalized(M, edges, penalty)
        return np.arange(M.shape[0]), Md, Md, None
    rows = M[W]
    np.putmask(rows, ~edges[W], -penalty)
    return W, rows, rows[:, W], np.sqrt(np.einsum("ij,ij->j", rows, rows))


def _certified(v: np.ndarray, ref, radius: float) -> bool:
    """Whether the bound set up at the refresh point ref still puts g <= 0 off C."""
    d = None if ref is None else v - ref
    return d is not None and math.sqrt(d @ d) <= radius


def _ascend(M: np.ndarray, edges: np.ndarray, penalty: float, u: np.ndarray, g):
    """Projected gradient ascent of u'(Md)u on the nonnegative unit sphere.

    Trials max(u + s*g, 0) lie inside W = supp(u) | {g > 0}: they are scored on
    a block Md[C, C], C a superset of W rebuilt when W leaves C or falls below
    half of it, and the gradient needs only Md[C, :], applied only when the
    bound g_i(v) <= g_i(ref) + |Md[C, i]| |v - ref| stops certifying g <= 0
    off C.  `g` is the last stage's gradient at u, or None; a larger penalty
    only lowers it, so it bounds W.  The loop keeps u and g on C only; g off C
    changes only at a full product, so W can leave C only right after one.
    The returned g is exact.
    """
    m = u.shape[0]
    C, rows, block, lip = _penalized_rows(M, edges, penalty, np.flatnonzero((u > 0.0) | (g is None or g > 0.0)))
    uC = u[C]
    g = uC @ rows  # the last full product: g off C holds its values
    gC = g[C]
    outside = np.count_nonzero(g > 0.0) > np.count_nonzero(gC > 0.0)  # W leaves C
    ref, radius, f = None, 0.0, None
    moved = stale = False
    for _ in range(_MAX_ITERATIONS):
        if outside or 2 * np.count_nonzero(np.maximum(uC, gC) > 0.0) < C.size:  # |W| < |C| / 2
            if moved:  # before the first step u is the caller's array
                u = np.zeros(m)
                u[C] = uC
            g[C] = gC
            rows = block = lip = ref = None  # release the old cache before building the next
            C, rows, block, lip = _penalized_rows(M, edges, penalty, np.flatnonzero((u > 0.0) | (g > 0.0)))
            uC, gC, outside = u[C], g[C], False
        if f is None:  # scored like the trials, so a trial equal to u never wins
            f = float(uC @ (gC if rows is block else uC @ block))  # all of Md: gC is that product
            alpha = 1.0 / max(1.0, abs(f))
        step = alpha
        for _ in range(40):
            v = np.maximum(uC + step * gC, 0.0)
            norm = math.sqrt(v @ v)
            if norm > 0.0:
                v /= norm
                gv = v @ block
                fv = float(v @ gv)
                if fv > f:
                    break
            step *= 0.5
        else:
            break
        moved = True
        stale = rows is not block and _certified(v, ref, radius)
        d = v - uC
        uC = v
        if rows is block or stale:
            gC = gv  # a stale g keeps off C the negative values it had at ref
        else:  # the margin covers the rounding of both products (|v| = 1)
            g = v @ rows
            gC = g[C]
            outside = np.count_nonzero(g > 0.0) > np.count_nonzero(gC > 0.0)
            slack = np.divide(-g, lip, out=np.zeros(m), where=lip > 0.0)
            slack[C] = np.inf  # the bound is needed off C only
            ref, radius = v, float(slack.min()) - 4.0 * C.size * np.finfo(float).eps
        f, alpha = fv, step * 2.0
        if math.sqrt(d @ d) < _TOL:
            break
    if moved:
        u = np.zeros(m)
        u[C] = uC
    if stale:
        g = uC @ rows
    else:
        g[C] = gC
    return u, g, moved


def _round_greedy(order: np.ndarray, M: np.ndarray, edges: np.ndarray, cap: int | None) -> list[int]:
    """Greedy rounding: take indices in `order` (decreasing u) while the
    running set stays pairwise feasible and its density keeps improving;
    returns them in the order taken."""
    feasible = np.ones(order.size, dtype=bool)
    selected: list[int] = []
    weight_sum = density = 0.0
    while order.size and (cap is None or len(selected) < cap):
        ahead = feasible[order]
        k = int(ahead.argmax())
        if not ahead[k]:
            break
        v = int(order[k])
        new_sum = weight_sum + 1.0 + (2.0 * float(M[v, selected].sum()) if selected else 0.0)
        new_density = new_sum / (len(selected) + 1)
        if selected and new_density < density - 1e-12:
            break
        selected.append(v)
        feasible &= edges[v]
        weight_sum, density = new_sum, new_density
        order = order[k + 1 :]
    return selected


def _best_ranked(A: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Column of each row's largest entry, a tie going to the smallest rank."""
    k = A.argmax(axis=1)
    for r in np.flatnonzero(k != A.shape[1] - 1 - A[:, ::-1].argmax(axis=1)):
        tied = np.flatnonzero(A[r] == A[r, k[r]])
        k[r] = tied[rank[tied].argmin()]
    return k


def _climb(starts: list[list[int]], rank: np.ndarray, M: np.ndarray, edges: np.ndarray) -> tuple[int, ...]:
    """Steepest ascent of the density from each start set, all rows stepping
    together; the densest end wins, a near tie (1e-12) going to the earlier start.

    Row state: set S, H its running sums of M, F its feasible non-members,
    weight W and size n.  A step takes the best add (the feasible non-member
    of largest H) or the best drop (the member of smallest H), whichever
    leaves the larger density, a tie in H going to the better `rank`; a row
    stops when that is not more than 1e-12 above its density.  Only a bitwise
    tie goes by rank: moves that tie in exact arithmetic are ranked by the
    rounding of the running sums, so by the order members joined.  Rows first
    grow by adds alone (cheaper steps), then climb by adds and drops.  Sums
    run in the order members joined, each start given in rank order, so no
    decision reads a label.
    """
    S = np.zeros((len(starts), rank.size), dtype=bool)
    for s, start in zip(S, starts):
        s[start] = True
    H = np.stack([M[start].sum(axis=0) for start in starts])
    F = np.stack([edges[start].all(axis=0) for start in starts]) & ~S
    W = np.array([h[start].sum() for h, start in zip(H, starts)])
    state = [S, H, F, W, S.sum(axis=1)]  # rows are written back here as they stop
    for drops in (False, True):
        live, (S, H, F, W, n) = np.arange(len(starts)), state
        while live.size:
            r = np.arange(live.size)
            gains = np.where(F, H, -np.inf)
            add = _best_ranked(gains, rank)
            grown = W + 1.0 + 2.0 * gains[r, add]  # -inf where no candidate is feasible
            up, drop, shrunk, down = grown / (n + 1), add, grown, -np.inf
            if drops:
                losses = np.where(S, H, np.inf)
                drop = _best_ranked(np.negative(losses, out=losses), rank)
                shrunk = W + 1.0 - 2.0 * H[r, drop]
                down = np.where(n > 1, shrunk / np.maximum(n - 1, 1), -np.inf)
            grow = up >= down
            go = np.where(grow, up, down) > W / n + 1e-12
            if not go.all():
                for full, rows in zip(state, (S, H, F, W, n)):
                    full[live[~go]] = rows[~go]
                live, S, H, F, W, n = live[go], S[go], H[go], F[go], W[go], n[go]
                r, add, drop, grow, grown, shrunk = r[: live.size], add[go], drop[go], grow[go], grown[go], shrunk[go]
            k = np.where(grow, add, drop)
            S[r, k] = grow
            rows = M[k]
            rows[~grow] *= -1.0
            H += rows
            F &= edges[k]
            F[r, k] = False
            for i in np.flatnonzero(~grow):  # a drop can free candidates the dropped member blocked
                F[i] = edges[S[i]].all(axis=0) & ~S[i]
            W, n = np.where(grow, grown, shrunk), n + np.where(grow, 1, -1)
    S, _, _, W, n = state
    density = W / n
    return tuple(np.flatnonzero(S[int(np.argmax(density >= density.max() - 1e-12))]).tolist())


def _round(u: np.ndarray, u0: np.ndarray, M: np.ndarray, edges: np.ndarray, rounding: str) -> tuple[int, ...]:
    """Round the relaxed iterate to a feasible index set by the given rule.

    Candidates are ranked by u, then by the power-init vector u0, then by
    index, so ties in u (every u = 0, say) go by values, not labels.
    """
    m = u.shape[0]
    order = np.lexsort((np.arange(m), -u0, -u))
    if rounding == "mass_capped":
        return tuple(sorted(_round_greedy(order, M, edges, cap=max(1, int(round(float(u @ (M @ u))))))))
    # Starts: the greedy prefix of u and each of the _STARTS best-ranked candidates alone.
    starts = [_round_greedy(order, M, edges, None), *([v] for v in order[:_STARTS].tolist())]
    return _climb(starts, np.argsort(order), M, edges)


def solve_densest(M: np.ndarray, rounding: str = "greedy_density") -> Selection:
    """Approximately solve the densest-subset problem on an affinity matrix.

    Deterministic: initialization is a power iteration from the all-ones
    vector, stopped at `_TOL`.  Rounding ranks candidates by u, then by that
    power-init vector, and by index only where both tie exactly; no other
    step reads a label.  The climb breaks a tie between moves by that rank
    only when their running sums tie bitwise; an exact-arithmetic tie can
    go by summation order instead.

    Rounding rules: "greedy_density" chases the raw density objective
    (steepest ascent by one-candidate adds and drops from the u-ordered
    greedy prefix and from each of the 16 best-ranked candidates alone,
    climbing together; the densest end wins); "mass_capped" rounds the
    u-ordered greedy prefix capped at the relaxation's mass estimate u'Mu,
    which suppresses weakly-attached vertices.  The latter suits
    correspondence selection, where a weak hanger-on can raise density yet
    is far likelier spurious than the core set.  Rounding reads rows of M
    for its columns, so M must be symmetric, as `build_affinity` makes it.
    """
    if rounding not in ROUNDING_RULES:
        raise ValueError(f"unknown rounding rule {rounding!r}")
    M = _validate_affinity(M)
    m = M.shape[0]
    if m == 0:
        return Selection((), np.zeros(0), 0.0)
    edges = binarize_constraints(M)
    u = u0 = _power_init(M)
    g = None
    penalty = _INITIAL_PENALTY
    while penalty <= m + 1.0:
        u, g, moved = _ascend(M, edges, penalty, u, g)
        # Exact early exit: with no non-edge inside W = supp(u) | {g > 0}, g on W
        # is penalty-free and off W only falls, so later stages would repeat
        # this stage's rejected trials and return u unchanged.
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        if not moved and edges[np.ix_(W, W)].all():
            break
        penalty *= _PENALTY_GROWTH
    indices = _round(u, u0, M, edges, rounding)
    return Selection(indices, u, _binary_density(M, indices))


def brute_force_densest(M: np.ndarray) -> Selection:
    """Exact oracle: enumerate every feasible subset and keep the densest.

    Ties are broken by the lexicographically smallest index tuple.  Only
    intended for small instances; refuses m > BRUTE_FORCE_LIMIT.
    """
    M = _validate_affinity(M)
    m = M.shape[0]
    if m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to m <= {BRUTE_FORCE_LIMIT}, got {m}")
    if m == 0:
        return Selection((), np.zeros(0), 0.0)
    edges = binarize_constraints(M)

    best_density = -np.inf
    best_set: tuple[int, ...] = ()

    def visit(members: list[int], weight_sum: float, candidates: list[int]) -> None:
        nonlocal best_density, best_set
        for pos, v in enumerate(candidates):
            w2 = weight_sum + 1.0 + (2.0 * float(M[v, members].sum()) if members else 0.0)
            members.append(v)
            density = w2 / len(members)
            key = tuple(members)
            if density > best_density or (density == best_density and key < best_set):
                best_density, best_set = density, key
            visit(members, w2, [w for w in candidates[pos + 1 :] if edges[v, w]])
            members.pop()

    visit([], 0.0, list(range(m)))
    u = np.zeros(m)
    u[list(best_set)] = 1.0 / np.sqrt(len(best_set))
    return Selection(best_set, u, float(best_density))
