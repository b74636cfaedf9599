"""Densest fully-consistent correspondence selection.

Given a symmetric affinity matrix M with unit diagonal, select the binary
indicator u maximizing the density u'Mu / u'u subject to the hard constraint
that no two selected entries have M(i,j) = 0.  The continuous relaxation is
solved on the nonnegative unit sphere with a geometrically growing penalty
on constraint violations, then rounded greedily; the multi-start rule
climbs from all its start sets at once, by steepest ascent on running sums,
and ranks tied candidates by u, never by label.  Each ascent step works on
a working set C of supp(u) | {gradient > 0}, holding the penalized matrix on
C's block and only on the columns off C that a Lipschitz certificate, set by
one blockwise pass over C's rows, cannot yet put at gradient <= 0; a step
past its radius rebuilds C as a gradient > 0 off C does.  While C spans
over a third of the candidates, products come from M and the edge graph: no
second m x m float array, nor a block over (m/3)^2, exists.  The solve packs
the edge graph from M as rows of bits (`_edge_bits`), one bit per pair, read
a few rows at a time through `_edge_rows`.  The penalty starts at theta/32,
theta the start vector's Ritz value, and stops growing as soon as a larger
one can change u by rounding at most.  An exhaustive oracle is provided.
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

_POWER_ITERATIONS = 100  # cap on every Lanczos run's products
_RITZ_TOL = 1e-9  # Lanczos stops at a Ritz residual of at most this times the Ritz value
_RITZ_FIRST = 12  # first Lanczos step that checks its Ritz pair; scan affinities converge in 13-20
_MAX_ITERATIONS = 150  # gradient steps per penalty stage
_SETTLE_HELD = 3  # accepted steps in a row on one support size before a settle
_SETTLE_DIRECT = 40  # supports up to this size settle by eigh, larger ones by Lanczos
_INITIAL_PENALTY = 1 / 32  # the first penalty over theta, the Ritz value of the start vector's Lanczos run
_PENALTY_GROWTH = 1.6
_BLOCK_ROWS = 64  # validation tiles and penalized products keep temporaries O(_BLOCK_ROWS x m), not m x m
_PASS_ROWS = 32  # global refreshes: a block of rows and its float edge mask fit a 2 MiB L2 cache at m ~ 2200
_SCREEN = 0.3  # a global refresh holds the columns off the working set with certificate slack below this
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


def _edge_bits(M: np.ndarray) -> np.ndarray:
    """binarize_constraints(M) as rows of bits, np.packbits(..., axis=1, bitorder="little"), packed
    _BLOCK_ROWS rows at a time so that no m x m bool array exists; M's diagonal must be positive."""
    bits = np.empty((M.shape[0], (M.shape[0] + 7) // 8), dtype=np.uint8)
    for r in range(0, M.shape[0], _BLOCK_ROWS):
        bits[r : r + _BLOCK_ROWS] = np.packbits(M[r : r + _BLOCK_ROWS] > 0.0, axis=1, bitorder="little")
    return bits


def _edge_rows(edges: np.ndarray, rows, m: int) -> np.ndarray:
    """Rows of the m-candidate edge graph held as `_edge_bits`, unpacked to bools (one row for an int)."""
    return np.unpackbits(edges[rows], axis=-1, count=m, bitorder="little").view(bool)


def _binary_density(M: np.ndarray, indices) -> float:
    idx = np.asarray(indices, dtype=np.intp)
    if not idx.size:
        return 0.0
    return float(M[idx[:, None], idx].sum() / idx.size)


def _lanczos(A: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Top Ritz vector and value of A by Lanczos from the unit vector q, each new vector orthogonalized
    twice against all earlier ones, and whether it passed: its residual |Ax - theta x| =
    b |s_last| is at most _RITZ_TOL * theta, checked at every step from _RITZ_FIRST on.  Stops once
    passed, at an invariant subspace (b <= _RITZ_TOL * T[0, 0]) or after min(q.size, _POWER_ITERATIONS)
    products.  The start vector and the settle both run this one schedule."""
    cap = min(q.size, _POWER_ITERATIONS)
    rows = min(cap, 2 * _RITZ_FIRST)  # doubled on demand: most runs stop by then
    Q, T = np.empty((rows, q.size)), np.zeros((rows, rows))  # Lanczos vectors as rows; T's lower triangle
    Q[0] = q
    for j in range(cap):
        w = A @ Q[j]
        for _ in range(2):
            h = Q[: j + 1] @ w
            w -= h @ Q[: j + 1]
            T[j, j] += h[j]
        b = math.sqrt(w @ w)
        last = j + 1 == cap or b <= _RITZ_TOL * T[0, 0]
        if last or j + 1 >= _RITZ_FIRST:
            theta, S = np.linalg.eigh(T[: j + 1, : j + 1])
            s = S[:, -1]
            passed = b * abs(s[-1]) <= _RITZ_TOL * theta[-1]
            if last or passed:
                break
        if j + 1 == rows:
            rows = min(cap, 2 * rows)
            Q, T = np.concatenate((Q, np.empty((rows - j - 1, q.size)))), np.pad(T, (0, rows - j - 1))
        T[j + 1, j] = b
        Q[j + 1] = w / b
    return s @ Q[: j + 1], float(theta[-1]), passed


def _perron_vector(M: np.ndarray) -> tuple[np.ndarray, float]:
    """M's nonnegative unit Perron vector, `_lanczos` from the uniform vector, and its Ritz value theta >= 1
    (diag M = 1, M >= 0).  From there the power method drains at |lambda_min| / lambda_1 (about 0.6 on
    scan affinities), and Lanczos at lambda_2 / lambda_1 (about 0.4) and better, in about half the products."""
    m = M.shape[0]
    u, theta, _ = _lanczos(M, np.full(m, 1.0 / math.sqrt(m)))
    if u.sum() < 0.0:
        u = -u
    np.maximum(u, 0.0, out=u)
    return u / math.sqrt(u @ u), theta


class _Penalized:
    """Md = (M on edges, -penalty off them), never formed: v @ Md = v @ M - penalty * (sum(v) - v @ edges),
    a block of edge rows where v != 0 unpacked at a time.  Equal to the formed Md up to rounding if M is 0 off edges."""

    __array_ufunc__ = None  # so that `v @ Md` calls __rmatmul__

    def __init__(self, M: np.ndarray, edges: np.ndarray, penalty: float):
        self.M, self.edges, self.penalty = M, edges, penalty

    def __rmatmul__(self, v: np.ndarray) -> np.ndarray:
        S, B = v.nonzero()[0], max(_BLOCK_ROWS, 2**16 // len(v))  # rows with v_i = 0 add nothing; small m: one block
        on = sum(v[r] @ _edge_rows(self.edges, r, len(v)) for r in (S[i : i + B] for i in range(0, S.size, B)))
        return v @ self.M - self.penalty * (v.sum() - on)


def _penalized(M: np.ndarray, edges: np.ndarray, penalty: float, rows: np.ndarray) -> np.ndarray:
    """Md[rows, :], bitwise as np.where(edges, M, -penalty): M * e + (e - 1) * penalty, e the edge rows as floats."""
    out = M[rows]
    e = _edge_rows(edges, rows, M.shape[0]).astype(float)
    out *= e
    out += np.multiply(np.subtract(e, 1.0, out=e), penalty, out=e)
    return out


def _screen(g: np.ndarray, norms, C: np.ndarray) -> np.ndarray:
    """Columns off C with slack -g_i / |Md[C, i]| below _SCREEN, at most |C| of them (the least slack,
    ties by index), so Md[C, S] never outgrows the block Md[C, C]; in index order; empty without norms."""
    if norms is None:
        return np.zeros(0, dtype=np.intp)
    slack = -g / norms
    slack[C] = np.inf
    S = np.flatnonzero(slack < _SCREEN)
    return S if S.size <= C.size else np.sort(S[np.argsort(slack[S], kind="stable")[: C.size]])


def _refresh(M: np.ndarray, edges: np.ndarray, penalty: float, C: np.ndarray, v: np.ndarray, S: np.ndarray):
    """Global refresh at v: one pass over Md[C, :], _PASS_ROWS rows at a time, never held whole: each
    block of rows is released before the next is built from M and the edge bits.

    Returns g = v @ Md[C, :], the block Md[C, C], norms |Md[C, i]|, S, Md[C, S] and the radius:
    g_i(v') <= g_i(v) + |Md[C, i]| |v' - v| stays <= 0 off C | S while |v' - v| <= radius (less a
    margin for the rounding of both products), columns past `_screen`'s cap included.  It is negative
    if some g_i off C | S is not below 0."""
    m = M.shape[0]
    g, sq, block, cols = np.zeros(m), np.zeros(m), np.empty((C.size, C.size)), np.empty((C.size, S.size))
    for i in range(0, C.size, _PASS_ROWS):
        r = slice(i, i + _PASS_ROWS)
        rows = _penalized(M, edges, penalty, C[r])
        g += v[r] @ rows
        np.take(rows, S, axis=1, out=cols[r], mode="clip")  # indices in range: "clip" only skips the bounds check
        sq += np.einsum("ij,ij->j", rows, rows)
        np.take(rows, C, axis=1, out=block[r], mode="clip")
        del rows
    norms = np.sqrt(sq)
    slack = -g / norms
    slack[C] = slack[S] = np.inf
    return g, block, norms, S, cols, float(slack.min()) - 4.0 * C.size * np.finfo(float).eps


def _lapsed(v: np.ndarray, ref: np.ndarray, radius: float) -> bool:
    """Whether v has left the radius of the refresh at ref, past which g off C | S is no longer certified."""
    d = v - ref
    return math.sqrt(d @ d) > radius


def _working_set(M: np.ndarray, edges: np.ndarray, penalty: float, u: np.ndarray, g, norms):
    """C = supp(u) | {g > 0} (all for g None), refreshed at u with S screened by g
    and the last `norms`; all of Md as `_Penalized`, and no S, once |C| > m/3."""
    m = M.shape[0]
    C = np.flatnonzero((u > 0.0) | (g is None or g > 0.0))
    if 3 * C.size <= m:
        return C, *_refresh(M, edges, penalty, C, u[C], _screen(g, norms, C))
    Md = _Penalized(M, edges, penalty)
    return np.arange(m), u @ Md, Md, None, np.zeros(0, dtype=np.intp), np.zeros((m, 0)), math.inf


class _Restricted:
    """Md[P, P] @ x for a `_Penalized` Md, never gathered: x on P times all of Md (symmetric), read on P."""

    def __init__(self, Md: _Penalized, P: np.ndarray):
        self.Md, self.P, self.v = Md, P, np.zeros(Md.M.shape[0])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self.v[self.P] = x
        return (self.v @ self.Md)[self.P]


def _settle(block, uC: np.ndarray):
    """The limit of steps that keep P = supp(uC): the top eigenvector of Md[P, P].  From a block,
    by eigh up to _SETTLE_DIRECT entries, else by `_lanczos` from uC[P] on the start vector's
    schedule; from all of Md, by that `_lanczos` through products restricted to P, so Md[P, P] is
    never gathered.  A unit vector over C, or None unless it is positive on P (and Lanczos passed)."""
    P = np.flatnonzero(uC)
    if isinstance(block, _Penalized):
        w, _, passed = _lanczos(_Restricted(block, P), uC[P])
    elif P.size <= _SETTLE_DIRECT:
        w, passed = np.linalg.eigh(block[np.ix_(P, P)])[1][:, -1], True
    else:
        w, _, passed = _lanczos(block[np.ix_(P, P)], uC[P])
    w = -w if w.sum() < 0.0 else w
    if not passed or w.min() <= 0.0:
        return None
    v = np.zeros(uC.size)
    v[P] = w / math.sqrt(w @ w)
    return v


def _ascend(M: np.ndarray, edges: np.ndarray, penalty: float, u: np.ndarray, g, norms):
    """Projected gradient ascent of u'(Md)u on the nonnegative unit sphere.

    Trials max(u + s*g, 0) lie inside W = supp(u) | {g > 0}: they are scored on
    a block Md[C, C], C a superset of W, or on all of Md until |W| <= m/3.
    Off C, each step reads g from Md[C, S] on the screened columns S; g is
    certified <= 0 elsewhere until v leaves the last refresh's radius.  Only
    `_working_set` builds the cache, the old one released first: when W
    leaves C (g > 0 on S, or v left the radius) or a wide stage's W fits a
    block.  `g` is the last stage's gradient at u, or None; a larger penalty
    only lowers it, so it bounds W.  `norms`, the last stage's last column
    norms, screen the first build's columns; after all of Md (None) it holds none.
    Once three steps in a row keep |supp(u)|, u settles: `_settle`'s
    eigenvector, unless it lowers u'(Md)u, is the step, and ends the stage if
    g <= 0 off its support, on the held cache if v is inside its radius and W
    in C, else on the cache rebuilt at v, before any line search.  Line
    searches start from twice the last accepted step, but on all of Md from
    that step until the settle is tried, so supp(u) shrinks steadily instead
    of swinging across m/3.  Otherwise a stage ends when a line search finds
    no ascent or after _MAX_ITERATIONS steps.  Returns u, g (exact on C | S,
    else its value at the last refresh), whether u is a fixed point of the
    stage (no step was taken, or it ended on a settle at a KKT point) and its
    last norms.
    """
    m = u.shape[0]
    C, g, block, norms, S, cols, radius = _working_set(M, edges, penalty, u, g, norms)
    uC, gC, gS, ref, f = u[C], g[C], g[S], u[C], None
    moved = settled = kkt = lapsed = False
    held, size = 0, np.count_nonzero(uC)  # held: accepted steps in a row that kept |supp(u)|
    for _ in range(_MAX_ITERATIONS):
        outside = lapsed or radius < 0.0 or (gS > 0.0).any()  # W leaves C: g > 0 on S, or off C | S uncertified
        kkt = settled and not outside and not (gC[uC == 0.0] > 0.0).any()  # a KKT point: g <= 0 off P
        if outside or (not kkt and norms is None and 3 * np.count_nonzero(np.maximum(uC, gC) > 0.0) <= m):
            if moved:  # before the first step u is the caller's array
                u = np.zeros(m)
                u[C] = uC
            g[C], g[S] = gC, gS
            block = cols = None  # release the old cache before building the next
            C, g, block, norms, S, cols, radius = _working_set(M, edges, penalty, u, g, norms)
            uC, gC, gS, ref = u[C], g[C], g[S], u[C]  # a settle's KKT test again, on the fresh cache:
            kkt = settled and radius >= 0.0 and not (gS > 0.0).any() and not (gC[uC == 0.0] > 0.0).any()
        if kkt:
            break
        if f is None:  # scored like the trials, so a trial equal to u never wins
            f = float(uC @ (gC if norms is None else uC @ block))  # all of Md: gC is that product
            alpha = 1.0 / max(1.0, abs(f))
        v = _settle(block, uC) if held == _SETTLE_HELD else None  # once per support
        if v is not None:
            gv = v @ block
            fv = float(v @ gv)
        settled = v is not None and fv >= f
        if not settled:
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
            alpha = step * 2.0 if norms is not None or held > _SETTLE_HELD else step
        moved, n = True, np.count_nonzero(v)
        lapsed, gS = _lapsed(v, ref, radius), v @ cols
        uC, gC, f, held, size = v, gv, fv, held + 1 if n == size else 0, n
    if moved:
        u = np.zeros(m)
        u[C] = uC
    g[C], g[S] = gC, gS
    return u, g, kkt or not moved, norms


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
        feasible &= _edge_rows(edges, v, M.shape[0])
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
    F = np.stack([_edge_rows(edges, start, rank.size).all(axis=0) for start in starts]) & ~S
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
            F &= _edge_rows(edges, k, rank.size)
            F[r, k] = False
            for i in np.flatnonzero(~grow):  # a drop can free candidates the dropped member blocked
                F[i] = _edge_rows(edges, S[i], rank.size).all(axis=0) & ~S[i]
            W, n = np.where(grow, grown, shrunk), n + np.where(grow, 1, -1)
    S, _, _, W, n = state
    density = W / n
    return tuple(np.flatnonzero(S[int(np.argmax(density >= density.max() - 1e-12))]).tolist())


def _round(u: np.ndarray, u0: np.ndarray, M: np.ndarray, edges: np.ndarray, rounding: str) -> tuple[int, ...]:
    """Round the relaxed iterate to a feasible index set by the given rule.

    Candidates are ranked by u, then by the start vector u0, then by
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

    Deterministic: the start vector is M's Perron vector, by Lanczos from the
    all-ones vector, stopped at the first step from `_RITZ_FIRST` whose Ritz
    residual passes `_RITZ_TOL`.  The penalty on non-edges starts at theta/32,
    theta >= 1 that run's Ritz value, so it is on the scale of M's own
    products at any m, and grows x1.6.  Each penalty stage steps until its
    support holds, then settles on the top eigenvector there (see `_ascend`).
    Rounding ranks candidates by u, then by that start vector, and by index
    only where both tie exactly; no other step reads a label.  The climb
    breaks a tie between moves by that rank only when their running sums
    tie bitwise; an exact-arithmetic tie can go by summation order instead.

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
    return _solve(_validate_affinity(M), rounding)


def _solve(M: np.ndarray, rounding: str) -> Selection:
    """`solve_densest` on an affinity known valid, such as `build_affinity`'s."""
    m = M.shape[0]
    if m == 0:
        return Selection((), np.zeros(0), 0.0)
    edges = _edge_bits(M)
    u0, theta = _perron_vector(M)
    u, g, norms = u0, None, None
    penalty = _INITIAL_PENALTY * theta  # on M's scale: theta is 13 at m ~ 150, 132 at m = 2220 (medians)
    while penalty <= m + 1.0:
        u, g, fixed, norms = _ascend(M, edges, penalty, u, g, norms)
        # Exact early exit: with no non-edge inside W = supp(u) | {g > 0}, g on W
        # is penalty-free and off W only falls, so from a fixed point u (no step
        # taken, or the top eigenvector of Md[P, P] with g <= 0 off P = supp(u))
        # later stages' trials are u again, moved by rounding at most.
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        blocks = (W[i : i + _BLOCK_ROWS] for i in range(0, W.size, _BLOCK_ROWS))
        if fixed and all(_edge_rows(edges, r, m)[:, W].all() for r in blocks):
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
