"""Densest fully-consistent correspondence selection.

Given a symmetric affinity matrix M with unit diagonal, select the binary
indicator u maximizing the density u'Mu / u'u subject to the hard constraint
that no two selected entries have M(i,j) = 0.  The continuous relaxation is
solved on the nonnegative unit sphere with a geometrically growing penalty
on constraint violations, then rounded greedily.  Each ascent step works on
the working set supp(u) | {gradient > 0}, so only those rows of the
penalized matrix are formed (and applied off the set only when a Lipschitz
bound stops certifying the gradient there <= 0), and the penalty loop stops
as soon as a larger penalty can no longer change u.  An exhaustive oracle is
provided for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverParams",
    "Selection",
    "binarize_constraints",
    "solve_densest",
    "brute_force_densest",
    "BRUTE_FORCE_LIMIT",
]

BRUTE_FORCE_LIMIT = 20

_POWER_ITERATIONS = 100  # cap; the power init stops once a step moves u by less than tol
_VALIDATE_ROWS = 64  # validation temporaries stay _VALIDATE_ROWS x m, not m x m


ROUNDING_RULES = ("greedy_density", "mass_capped")


@dataclass(frozen=True)
class SolverParams:
    """Solver configuration.

    Rounding rules: "greedy_density" chases the raw density objective
    (multi-start rounding plus local refinement); "mass_capped" rounds the
    u-ordered greedy prefix capped at the relaxation's mass estimate u'Mu,
    which suppresses weakly-attached vertices.  The latter suits
    correspondence selection, where a weak hanger-on can raise density yet
    is far likelier spurious than the core set.
    """

    max_iterations: int = 150      # gradient steps per penalty stage
    tol: float = 1e-8              # convergence threshold on iterate change
    penalty_growth: float = 1.6
    initial_penalty: float = 0.25
    rounding: str = "greedy_density"

    def __post_init__(self):
        if not self.max_iterations > 0:  # negated, so NaN is rejected too
            raise ValueError("max_iterations must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.penalty_growth > 1.0:
            raise ValueError("penalty_growth must exceed 1")
        if not self.initial_penalty > 0:
            raise ValueError("initial_penalty must be positive")
        if self.rounding not in ROUNDING_RULES:
            raise ValueError(f"unknown rounding rule {self.rounding!r}")


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
    idx = list(indices)
    if not idx:
        return 0.0
    sub = M[np.ix_(idx, idx)]
    return float(sub.sum() / len(idx))


def _power_init(M: np.ndarray, tol: float) -> np.ndarray:
    m = M.shape[0]
    u = np.full(m, 1.0 / np.sqrt(m))
    for _ in range(_POWER_ITERATIONS):
        v = M @ u
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            break
        v /= norm
        if float(np.linalg.norm(v - u)) < tol:
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
    return ref is not None and float(np.linalg.norm(v - ref)) <= radius


def _ascend(M: np.ndarray, edges: np.ndarray, penalty: float, u: np.ndarray, g, params: SolverParams):
    """Projected gradient ascent of u'(Md)u on the nonnegative unit sphere.

    Trials max(u + s*g, 0) lie inside W = supp(u) | {g > 0}: they are scored on
    a block Md[C, C], C a superset of W rebuilt when W leaves C or falls below
    half of it, and the gradient needs only Md[C, :], applied only when the
    bound g_i(v) <= g_i(ref) + |Md[C, i]| |v - ref| stops certifying g <= 0
    off C.  `g` is the last stage's gradient at u, or None; a larger penalty
    only lowers it, so it bounds W.  The returned g is exact.
    """
    m = u.shape[0]
    C, rows, block, lip = _penalized_rows(M, edges, penalty, np.flatnonzero((u > 0.0) | (g is None or g > 0.0)))
    g = u[C] @ rows
    ref, radius, f = None, 0.0, None
    moved = stale = False
    for _ in range(params.max_iterations):
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        if 2 * W.size < C.size or not (np.take(C, np.searchsorted(C, W), mode="clip") == W).all():
            rows = block = lip = ref = None  # release the old cache before building the next
            C, rows, block, lip = _penalized_rows(M, edges, penalty, W)
        uC, gC = u[C], g[C]
        if f is None:  # scored like the trials, so a trial equal to u never wins
            f = float(uC @ (uC @ block))
            alpha = 1.0 / max(1.0, abs(f))
        step = alpha
        for _ in range(40):
            v = np.maximum(uC + step * gC, 0.0)
            norm = float(np.linalg.norm(v))
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
        u = np.zeros(m)
        u[C] = v
        stale = rows is not block and _certified(v, ref, radius)
        if rows is block or stale:
            g[C] = gv  # a stale g keeps off C the negative values it had at ref
        else:  # the margin covers the rounding of both products (|v| = 1)
            g = v @ rows
            slack = np.divide(-g, lip, out=np.zeros(m), where=lip > 0.0)
            ref, radius = v, float(np.delete(slack, C).min()) - 4.0 * C.size * np.finfo(float).eps
        f, alpha = fv, step * 2.0
        if float(np.linalg.norm(v - uC)) < params.tol:
            break
    if stale:
        g = u[C] @ rows
    return u, g, moved


def _round_greedy(u: np.ndarray, M: np.ndarray, edges: np.ndarray, cap: int | None) -> tuple[int, ...]:
    """Greedy rounding: take indices by decreasing u while the running set
    stays pairwise feasible and its density keeps improving."""
    m = u.shape[0]
    order = np.lexsort((np.arange(m), -u))
    selected: list[int] = []
    weight_sum = 0.0
    density = 0.0
    for v in order:
        if cap is not None and len(selected) >= cap:
            break
        if selected and not edges[v, selected].all():
            continue
        new_sum = weight_sum + 1.0 + (2.0 * float(M[v, selected].sum()) if selected else 0.0)
        new_density = new_sum / (len(selected) + 1)
        if selected and new_density < density - 1e-12:
            break
        selected.append(int(v))
        weight_sum, density = new_sum, new_density
    return tuple(sorted(selected))


def _best_first_from(v0: int, M: np.ndarray, edges: np.ndarray) -> tuple[int, ...]:
    """Grow a feasible set from one seed, always adding the best density gain."""
    S = [int(v0)]
    weight_sum = 1.0
    while True:
        feasible = edges[:, S].all(axis=1)
        feasible[S] = False
        idxs = np.nonzero(feasible)[0]
        if idxs.size == 0:
            break
        gains = 1.0 + 2.0 * M[np.ix_(idxs, S)].sum(axis=1)
        densities = (weight_sum + gains) / (len(S) + 1)
        k = int(np.argmax(densities))
        if densities[k] <= weight_sum / len(S) + 1e-12:
            break
        S.append(int(idxs[k]))
        weight_sum += float(gains[k])
    return tuple(sorted(S))


def _local_improve(selected: tuple[int, ...], M: np.ndarray, edges: np.ndarray) -> tuple[int, ...]:
    """Deterministic add/drop hill climbing on the density objective."""
    m = M.shape[0]
    S = set(selected)
    for _ in range(50):
        changed = False
        members = sorted(S)
        density = _binary_density(M, members)
        weight_sum = density * len(members)
        for v in range(m):
            if v in S or not edges[v, members].all():
                continue
            gain = 1.0 + 2.0 * float(M[v, members].sum())
            if (weight_sum + gain) / (len(members) + 1) > density + 1e-12:
                S.add(v)
                members = sorted(S)
                weight_sum += gain
                density = weight_sum / len(members)
                changed = True
        for v in sorted(S):
            if len(S) == 1:
                break
            others = sorted(S - {v})
            loss = 1.0 + 2.0 * float(M[v, others].sum())
            if (weight_sum - loss) / (len(S) - 1) > density + 1e-12:
                S.remove(v)
                weight_sum -= loss
                density = weight_sum / len(S)
                members = others
                changed = True
        if not changed:
            break
    return tuple(sorted(S))


def _round(u: np.ndarray, M: np.ndarray, edges: np.ndarray, rounding: str) -> tuple[int, ...]:
    """Round the relaxed iterate to a feasible index set by the given rule."""
    if rounding == "mass_capped":
        return _round_greedy(u, M, edges, cap=max(1, int(round(float(u @ (M @ u))))))
    # Multi-start: the greedy prefix of u plus best-first growth from the
    # strongest seeds, each refined locally; densest result wins, ties
    # broken by the lexicographically smallest index set.
    order = np.lexsort((np.arange(u.shape[0]), -u))
    proposals = [_local_improve(_round_greedy(u, M, edges, None), M, edges)]
    proposals += [_local_improve(_best_first_from(v, M, edges), M, edges) for v in order[:16]]
    best = None
    for prop in proposals:
        density = _binary_density(M, prop)
        if best is None or density > best[0] + 1e-12 or (abs(density - best[0]) <= 1e-12 and prop < best[1]):
            best = (density, prop)
    return best[1]


def solve_densest(M: np.ndarray, params: SolverParams = SolverParams()) -> Selection:
    """Approximately solve the densest-subset problem on an affinity matrix.

    Deterministic: initialization is a power iteration from the all-ones
    vector, stopped at `params.tol`, and every tie is broken by index order.
    """
    M = _validate_affinity(M)
    m = M.shape[0]
    if m == 0:
        return Selection((), np.zeros(0), 0.0)
    edges = binarize_constraints(M)
    u = _power_init(M, params.tol)
    g = None
    penalty = params.initial_penalty
    while penalty <= m + 1.0:
        u, g, moved = _ascend(M, edges, penalty, u, g, params)
        # Exact early exit: with no non-edge inside W = supp(u) | {g > 0}, g on W
        # is penalty-free and off W only falls, so later stages would repeat
        # this stage's rejected trials and return u unchanged.
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        if not moved and edges[np.ix_(W, W)].all():
            break
        penalty *= params.penalty_growth
    indices = _round(u, M, edges, params.rounding)
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
