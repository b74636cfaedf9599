"""Densest fully-consistent correspondence selection.

Given a symmetric affinity matrix M with unit diagonal, select the binary
indicator u maximizing the density u'Mu / u'u subject to the hard constraint
that no two selected entries have M(i,j) = 0.  The continuous relaxation is
solved on the nonnegative unit sphere with a geometrically growing penalty
on constraint violations, then rounded greedily; the multi-start rule grows
its best-first starts as one batched state and screens every local-search
move on running sums before its exact test.  Each ascent step works on
the working set supp(u) | {gradient > 0}, so only those rows of the
penalized matrix are formed (and applied off the set only when a Lipschitz
bound stops certifying the gradient there <= 0), and the penalty loop stops
as soon as a larger penalty can no longer change u.  An exhaustive oracle is
provided for small instances.
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
_VALIDATE_ROWS = 64  # validation temporaries stay _VALIDATE_ROWS x m, not m x m
_STARTS = 16  # best-first rounding starts, seeded at the largest entries of u


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
    starts = range(0, M.shape[0], _VALIDATE_ROWS)
    if not all(np.isfinite(M[i : i + _VALIDATE_ROWS]).all() for i in starts):
        raise ValueError("affinity matrix must be finite")
    if any(np.abs(M[i : i + _VALIDATE_ROWS, i:] - M[i:, i : i + _VALIDATE_ROWS].T).max() > 1e-9 for i in starts):
        raise ValueError("affinity matrix must be symmetric")
    if M.min() < -1e-12 or M.max() > 1.0 + 1e-9:
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


def _penalized_rows(M: np.ndarray, edges: np.ndarray, penalty: float, W: np.ndarray):
    """Rows Md[W, :], block Md[W, W] and column norms |Md[W, i]| of Md =
    (M on edges, -penalty off them); all of Md, with no norms, once |W| > m/2."""
    if 2 * W.size > M.shape[0]:
        Md = np.where(edges, M, -penalty)
        return np.arange(M.shape[0]), Md, Md, None
    rows = np.where(edges[W], M[W], -penalty)
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
        if outside or 2 * np.count_nonzero((uC > 0.0) | (gC > 0.0)) < C.size:
            if moved:  # before the first step u is the caller's array
                u = np.zeros(m)
                u[C] = uC
            g[C] = gC
            rows = block = lip = ref = None  # release the old cache before building the next
            C, rows, block, lip = _penalized_rows(M, edges, penalty, np.flatnonzero((u > 0.0) | (g > 0.0)))
            uC, gC, outside = u[C], g[C], False
        if f is None:  # scored like the trials, so a trial equal to u never wins
            f = float(uC @ (uC @ block))
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
            ref, radius = v, float(np.delete(slack, C).min()) - 4.0 * C.size * np.finfo(float).eps
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


def _round_greedy(order: np.ndarray, M: np.ndarray, edges: np.ndarray, cap: int | None) -> tuple[int, ...]:
    """Greedy rounding: take indices in `order` (decreasing u) while the
    running set stays pairwise feasible and its density keeps improving."""
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
    return tuple(sorted(selected))


def _best_first(seeds: np.ndarray, M: np.ndarray, edges: np.ndarray, slack: float) -> list[tuple[int, ...]]:
    """Grow a feasible set from each seed, always adding the best density
    gain; all seeds step together, one row of state each.

    H is 1 + the running sum of M over a row's set and F its feasible
    vertices.  H ranks candidates; the chosen gain and any candidate within
    `slack` of the best are summed again over the set in insertion order,
    so each set grows as if alone.
    """
    found = {}
    live = rows = np.arange(seeds.size)
    S = seeds[:, None]  # members in insertion order
    weight = np.ones(seeds.size)
    F = edges[seeds]
    F[rows, seeds] = False
    H = M[seeds] + 1.0  # > 0 wherever F holds: edge weights are > 0
    while live.size:
        n = S.shape[1]
        A = H * F
        k = A.argmax(axis=1)
        top = A[rows, k]
        A[rows, k] = 0.0
        F[rows, k] = False
        for r in (A.max(axis=1) >= top - slack).nonzero()[0]:  # near ties, or no candidate
            if top[r] > 0.0:
                near = np.union1d((A[r] >= top[r] - slack).nonzero()[0], k[r])
                dens = (weight[r] + (1.0 + 2.0 * M[near[:, None], S[r]].sum(axis=1))) / (n + 1)
                F[r, k[r]] = True
                k[r] = near[dens.argmax()]
                F[r, k[r]] = False
        gains = 1.0 + 2.0 * M[k[:, None], S].sum(axis=1)
        grow = (top > 0.0) & ((weight + gains) / (n + 1) > weight / n + 1e-12)
        if not grow.all():
            found.update((int(live[r]), tuple(sorted(S[r].tolist()))) for r in (~grow).nonzero()[0])
            live, S, k, weight, gains, F, H = live[grow], S[grow], k[grow], weight[grow], gains[grow], F[grow], H[grow]
            rows = np.arange(live.size)
        weight += gains
        S = np.concatenate([S, k[:, None]], axis=1)
        F &= edges[k]
        H += M[k]
    return [found[r] for r in range(seeds.size)]


def _local_improve(selected: tuple[int, ...], M: np.ndarray, edges: np.ndarray, slack: float) -> tuple[int, ...]:
    """Deterministic add/drop hill climbing on the density objective.

    Each pass screens all its candidates at once on running sums of M,
    loose by `slack`, and runs the exact one-vertex test on screen hits only.
    """
    S = list(selected)  # kept sorted
    for _ in range(50):
        n, changed = len(S), False
        density = _binary_density(M, S)
        weight_sum = density * n
        members = np.array(S)
        feasible = edges[members].all(axis=0)
        feasible[members] = False
        cand = feasible.nonzero()[0]
        sums = M[members[:, None], cand].sum(axis=0)
        while True:  # add pass, in index order
            hit = ((weight_sum + (1.0 + 2.0 * sums)) / (n + 1) > density + (1e-12 - slack)).nonzero()[0]
            if not hit.size:
                break
            v, rest = int(cand[hit[0]]), slice(hit[0] + 1, None)
            cand, sums = cand[rest], sums[rest]
            gain = 1.0 + 2.0 * float(M[v, S].sum())
            if (weight_sum + gain) / (n + 1) > density + 1e-12:
                S, n, weight_sum, changed = sorted(S + [v]), n + 1, weight_sum + gain, True
                density = weight_sum / n
                keep = edges[v, cand]
                cand, sums = cand[keep], sums[keep] + M[v, cand[keep]]
        members = np.array(S)
        sums = M[members[:, None], members].sum(axis=0)
        while n > 1:  # drop pass, over the members at its start
            hit = ((weight_sum - (2.0 * sums - 1.0)) / (n - 1) > density + (1e-12 - slack)).nonzero()[0]
            if not hit.size:
                break
            v, rest = int(members[hit[0]]), slice(hit[0] + 1, None)
            members, sums = members[rest], sums[rest]
            others = [s for s in S if s != v]
            loss = 1.0 + 2.0 * float(M[v, others].sum())
            if (weight_sum - loss) / (n - 1) > density + 1e-12:
                S, n, weight_sum, changed = others, n - 1, weight_sum - loss, True
                density = weight_sum / n
                sums = sums - M[v, members]
        if not changed:
            break
    return tuple(S)


def _round(u: np.ndarray, M: np.ndarray, edges: np.ndarray, rounding: str) -> tuple[int, ...]:
    """Round the relaxed iterate to a feasible index set by the given rule."""
    m = u.shape[0]
    order = np.lexsort((np.arange(m), -u))
    if rounding == "mass_capped":
        return _round_greedy(order, M, edges, cap=max(1, int(round(float(u @ (M @ u))))))
    # Multi-start: the greedy prefix of u plus best-first growth from the
    # strongest seeds, each refined locally; densest result wins, ties
    # broken by the lexicographically smallest index set.  A screen sums at
    # most 2m entries of M, each in [-1e-12, 1], in its own order, so its
    # densities stay within `slack` of those the exact tests compute.
    slack = 32.0 * (m + 2) ** 2 * np.finfo(float).eps
    raw = [_round_greedy(order, M, edges, None), *_best_first(order[:_STARTS], M, edges, slack)]
    improved = {prop: _local_improve(prop, M, edges, slack) for prop in dict.fromkeys(raw)}
    densities = {prop: _binary_density(M, prop) for prop in set(improved.values())}
    best = None
    for prop in (improved[p] for p in raw):
        density = densities[prop]
        if best is None or density > best[0] + 1e-12 or (abs(density - best[0]) <= 1e-12 and prop < best[1]):
            best = (density, prop)
    return best[1]


def solve_densest(M: np.ndarray, rounding: str = "greedy_density") -> Selection:
    """Approximately solve the densest-subset problem on an affinity matrix.

    Deterministic: initialization is a power iteration from the all-ones
    vector, stopped at `_TOL`, and every tie is broken by index order.

    Rounding rules: "greedy_density" chases the raw density objective (the
    u-ordered greedy prefix and best-first growth from the 16 largest
    entries of u, grown together in one batched pass, each refined by
    add/drop local search); "mass_capped" rounds the u-ordered greedy prefix
    capped at the relaxation's mass estimate u'Mu, which suppresses
    weakly-attached vertices.  The latter suits correspondence selection,
    where a weak hanger-on can raise density yet is far likelier spurious
    than the core set.  Rounding reads rows of M for its columns, so M must
    be symmetric, as `build_affinity` makes it.
    """
    if rounding not in ROUNDING_RULES:
        raise ValueError(f"unknown rounding rule {rounding!r}")
    M = _validate_affinity(M)
    m = M.shape[0]
    if m == 0:
        return Selection((), np.zeros(0), 0.0)
    edges = binarize_constraints(M)
    u = _power_init(M)
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
    indices = _round(u, M, edges, rounding)
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
