import tracemalloc

import numpy as np
import pytest

from conftest import LADDER, ladder_pair
from graffassoc import (
    ConsistencyParams,
    DistanceFn,
    PairConfig,
    SceneConfig,
    Selection,
    binarize_constraints,
    brute_force_densest,
    build_affinity,
    generate_scene,
    make_loop_pair,
    solve_densest,
)
from graffassoc import clique_solver
from graffassoc.clique_solver import (
    _INITIAL_PENALTY,
    _MAX_ITERATIONS,
    _PENALTY_GROWTH,
    _POWER_ITERATIONS,
    _RITZ_FIRST,
    _RITZ_TOL,
    _TOL,
    ROUNDING_RULES,
    _perron_vector,
)


def planted_matrix(rng, m, block, background=0.3, edge_prob=0.5):
    A = rng.uniform(0.0, background, (m, m))
    A = (A + A.T) / 2
    mask = rng.uniform(0, 1, (m, m))
    mask = (mask + mask.T) / 2
    A[mask < 1.0 - edge_prob] = 0.0
    A[np.ix_(block, block)] = 1.0
    np.fill_diagonal(A, 1.0)
    return A


def random_gated_matrix(rng, m):
    A = rng.uniform(0, 1, (m, m))
    A = (A + A.T) / 2
    gate = rng.uniform(0, 1, (m, m))
    gate = np.minimum(gate, gate.T)
    A[gate < 0.5] = 0.0
    np.fill_diagonal(A, 1.0)
    return A


def quantized_matrix(rng, m, values=(0.1, 0.2, 0.3, 0.7, 0.6, 0.9)):
    """Weights drawn from a few decimals: many gains tie as exact sums but
    not as sums taken in another order or from another start."""
    A = np.asarray(values)[rng.integers(0, len(values), (m, m))]
    A = np.triu(A, 1)
    A = A + A.T
    gate = rng.uniform(0, 1, (m, m))
    gate = np.minimum(gate, gate.T)
    A[gate < 0.3] = 0.0
    np.fill_diagonal(A, 1.0)
    return A


def block_diag_ones(sizes):
    m = sum(sizes)
    A = np.zeros((m, m))
    start = 0
    for s in sizes:
        A[start : start + s, start : start + s] = 1.0
        start += s
    return A


def packed(M):
    """binarize_constraints(M) as the solver holds it: rows of bits, np.packbits little-endian."""
    return np.packbits(binarize_constraints(M), axis=1, bitorder="little")


def unpacked(bits, m):
    """Rows of a packed m-candidate edge graph as bools."""
    return np.unpackbits(bits, axis=-1, count=m, bitorder="little").view(bool)


class TestBinarize:
    def test_zero_is_no_edge(self):
        M = np.eye(3)
        M[0, 1] = M[1, 0] = 0.0
        edges = binarize_constraints(M)
        assert not edges[0, 1]

    def test_tiny_positive_is_edge(self):
        M = np.eye(2)
        M[0, 1] = M[1, 0] = 1e-9
        assert binarize_constraints(M)[0, 1]

    def test_fully_gated(self):
        edges = binarize_constraints(np.eye(4))
        off = edges & ~np.eye(4, dtype=bool)
        assert not off.any()


class TestBruteForce:
    def test_planted_unit_block(self):
        rng = np.random.default_rng(0)
        M = planted_matrix(rng, 10, [2, 4, 6, 8])
        assert brute_force_densest(M).indices == (2, 4, 6, 8)

    def test_two_disjoint_blocks_prefers_larger(self):
        M = block_diag_ones([3, 4])
        sel = brute_force_densest(M)
        assert sel.indices == (3, 4, 5, 6)
        assert sel.objective == pytest.approx(4.0)

    def test_identity_picks_lexicographically_first(self):
        sel = brute_force_densest(np.eye(5))
        assert sel.indices == (0,)
        assert sel.objective == pytest.approx(1.0)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_densest(np.eye(21))

    def test_empty(self):
        sel = brute_force_densest(np.zeros((0, 0)))
        assert sel.indices == ()

    def test_weighted_instance_matches_exhaustive_scan(self):
        # independent oracle: score every feasible subset directly
        rng = np.random.default_rng(1)
        M = random_gated_matrix(rng, 6)
        best = (-1.0, ())
        for mask in range(1, 64):
            S = [i for i in range(6) if mask >> i & 1]
            if any(M[i, j] == 0.0 for i in S for j in S if i != j):
                continue
            dens = float(M[np.ix_(S, S)].sum()) / len(S)
            if dens > best[0] + 1e-12 or (abs(dens - best[0]) <= 1e-12 and tuple(S) < best[1]):
                best = (dens, tuple(S))
        sel = brute_force_densest(M)
        assert sel.indices == best[1]
        assert sel.objective == pytest.approx(best[0], abs=1e-12)

    def test_validates_affinity(self):
        with pytest.raises(ValueError):
            brute_force_densest(np.array([[1.0, 2.0], [2.0, 1.0]]))  # entries > 1
        with pytest.raises(ValueError):
            brute_force_densest(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


class TestValidateAffinity:
    """Checks run over row blocks; m = 150 spans several of them."""

    @staticmethod
    def valid(m=150):
        return random_gated_matrix(np.random.default_rng(13), m)

    @pytest.mark.parametrize("i, j", [(0, 1), (140, 3), (70, 149)])
    def test_asymmetry_anywhere(self, i, j):
        M = self.valid()
        M[i, j] = 0.5 * M[i, j] + 0.25
        with pytest.raises(ValueError, match="^affinity matrix must be symmetric$"):
            solve_densest(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_reported_before_asymmetry(self, bad):
        M = self.valid()
        M[0, 1] = 0.5 * M[0, 1] + 0.25
        M[145, 120] = bad
        with pytest.raises(ValueError, match="^affinity matrix must be finite$"):
            solve_densest(M)

    def test_range_and_diagonal(self):
        M = self.valid()
        M[130, 7] = M[7, 130] = 1.5
        with pytest.raises(ValueError, match=r"^affinity entries must lie in \[0, 1\]$"):
            solve_densest(M)
        M = self.valid()
        M[149, 149] = 0.5
        with pytest.raises(ValueError, match="^affinity diagonal must be all ones$"):
            solve_densest(M)


class TestSolveDensest:
    def test_identity_matrix(self):
        sel = solve_densest(np.eye(6))
        assert len(sel.indices) == 1
        assert sel.objective == pytest.approx(1.0)

    def test_planted_all_ones_block(self):
        M = np.zeros((12, 12))
        block = [1, 3, 5, 7, 9]
        M[np.ix_(block, block)] = 1.0
        np.fill_diagonal(M, 1.0)
        sel = solve_densest(M)
        assert sel.indices == tuple(block)
        assert sel.objective == pytest.approx(5.0)

    def test_oracle_ratio_on_random_instances(self):
        ok = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            M = random_gated_matrix(rng, 12)
            approx = solve_densest(M)
            exact = brute_force_densest(M)
            if approx.objective >= 0.95 * exact.objective - 1e-12:
                ok += 1
        assert ok >= 57  # >= 95% of trials

    def test_feasibility_always(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            M = random_gated_matrix(rng, 14)
            sel = solve_densest(M)
            for i in sel.indices:
                for j in sel.indices:
                    if i != j:
                        assert M[i, j] > 0.0

    def test_isolated_vertex_changes_nothing(self):
        rng = np.random.default_rng(7)
        block = [0, 2, 4, 5]
        M = planted_matrix(rng, 9, block)
        base = solve_densest(M).indices
        grown = np.zeros((10, 10))
        grown[:9, :9] = M
        grown[9, 9] = 1.0
        assert solve_densest(grown).indices == base

    @pytest.mark.parametrize("rounding", ROUNDING_RULES)
    @pytest.mark.parametrize("seed, m", [(8, 10), (9, 30)])
    def test_permutation_equivariance(self, seed, m, rounding):
        # At m = 30, u is 0 on all but 3 candidates, so most rounding starts
        # tie on u and must not be told apart by label.
        rng = np.random.default_rng(seed)
        M = random_gated_matrix(rng, m)
        sel = solve_densest(M, rounding=rounding)
        assert m == 10 or np.count_nonzero(sel.u) < clique_solver._STARTS
        perm = rng.permutation(m)
        P = np.eye(m)[perm]
        M2 = P @ M @ P.T
        sel2 = solve_densest(M2, rounding=rounding)
        mapped = tuple(sorted(int(np.nonzero(perm == i)[0][0]) for i in sel.indices))
        assert sel2.indices == mapped

    def test_offdiagonal_scaling_keeps_brute_force_argmax(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            r = np.random.default_rng(seed)
            M = random_gated_matrix(r, 9)
            base = brute_force_densest(M).indices
            for gamma in (0.25, 0.5, 0.9):
                scaled = M * gamma
                np.fill_diagonal(scaled, 1.0)
                assert brute_force_densest(scaled).indices == base

    def test_empty_matrix(self):
        sel = solve_densest(np.zeros((0, 0)))
        assert sel.indices == () and sel.objective == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        M = random_gated_matrix(rng, 15)
        a = solve_densest(M)
        b = solve_densest(M)
        assert a.indices == b.indices
        assert np.array_equal(a.u, b.u)

    def test_objective_in_valid_range(self):
        rng = np.random.default_rng(11)
        M = random_gated_matrix(rng, 12)
        sel = solve_densest(M)
        lam_max = np.linalg.eigvalsh(M)[-1]
        assert 1.0 - 1e-12 <= sel.objective <= lam_max + 1e-9

    def test_mass_capped_rounding_on_planted(self):
        rng = np.random.default_rng(12)
        block = [1, 4, 6, 10, 13]
        M = planted_matrix(rng, 15, block)
        sel = solve_densest(M, rounding="mass_capped")
        assert sel.indices == tuple(block)

    def test_params_validated(self):
        # Checked before the affinity: a non-square one would raise its own error.
        for M in (np.eye(3), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="^unknown rounding rule 'magic'$"):
                solve_densest(M, rounding="magic")

    def test_selection_type(self):
        sel = solve_densest(np.eye(3))
        assert isinstance(sel, Selection)
        assert sel.u.shape == (3,)


# Reference relaxation: every stage ascends on the full penalized matrix
# M - penalty * violations, up to penalty m + 1.  `early_exit` adds the
# solver's exit rule on top of the same dense step.
def dense_ascend(Md, u):
    g = Md @ u
    f = float(u @ g)
    alpha = 1.0 / max(1.0, abs(f))
    moved = False
    for _ in range(_MAX_ITERATIONS):
        improved = False
        step = alpha
        for _ in range(40):
            v = np.maximum(u + step * g, 0.0)
            norm = float(np.linalg.norm(v))
            if norm > 0.0:
                v /= norm
                gv = Md @ v
                fv = float(v @ gv)
                if fv > f:
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
        moved = True
        delta = float(np.linalg.norm(v - u))
        u, g, f = v, gv, fv
        alpha = step * 2.0
        if delta < _TOL:
            break
    return u, g, moved


def dense_relaxation(M, early_exit=False):
    m = M.shape[0]
    edges = binarize_constraints(M)
    violations = (~edges).astype(float)
    u = _perron_vector(M)
    penalty = _INITIAL_PENALTY
    stages = 0
    while penalty <= m + 1.0:
        u, g, moved = dense_ascend(M - penalty * violations, u)
        stages += 1
        W = (u > 0.0) | (g > 0.0)
        if early_exit and not moved and edges[np.ix_(W, W)].all():
            break
        penalty *= _PENALTY_GROWTH
    return u, stages


# Reference rounding: one start set at a time, every density summed afresh
# from M over the set.
def reference_density(M, indices):
    idx = list(indices)
    if not idx:
        return 0.0
    sub = M[np.ix_(idx, idx)]
    return float(sub.sum() / len(idx))


def reference_round_greedy(order, M, edges, cap):
    selected = []
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
    return selected


# Densities closer than this count as tied (as do a density and a 1e-12
# threshold): the solver's running sums and these fresh ones can differ in
# the last bits and so rank such moves differently.
NEAR_TIE = 1e-13


def reference_climb(start, M, edges, order):
    """Grow by the best add while it raises the density by more than 1e-12,
    then take the best add or drop, whichever is denser, while that does;
    a tie in density goes to the candidate earlier in `order`.  Also says
    whether any decision met a near tie."""
    S = list(start)
    tied = False
    for drops in (False, True):
        while True:
            n = len(S)
            weight = float(M[np.ix_(S, S)].sum())
            feasible = edges[:, S].all(axis=1)
            feasible[S] = False
            adds = order[feasible[order]]
            members = order[np.isin(order, S)]
            moves, dens_all = [], []
            if adds.size:
                dens = (weight + 1.0 + 2.0 * M[np.ix_(adds, S)].sum(axis=1)) / (n + 1)
                moves.append((dens.max(), S + [int(adds[dens.argmax()])]))
                dens_all.append(dens)
            if drops and n > 1:
                dens = (weight + 1.0 - 2.0 * M[np.ix_(members, S)].sum(axis=1)) / (n - 1)
                moves.append((dens.max(), [s for s in S if s != members[dens.argmax()]]))
                dens_all.append(dens)
            top = np.sort(np.concatenate(dens_all))[::-1] if dens_all else np.zeros(0)
            stop = weight / n + 1e-12
            tied |= bool(top.size and abs(top[0] - stop) <= NEAR_TIE)
            if not moves or top[0] <= stop:
                break
            tied |= bool(top.size > 1 and top[0] - top[1] <= NEAR_TIE)
            S = moves[0][1] if moves[0][0] >= moves[-1][0] else moves[-1][1]
    return reference_density(M, S), tuple(sorted(S)), tied


def reference_round(u, u0, M, edges, rounding):
    """Indices the rule selects, and whether the climb met a near tie."""
    order = np.lexsort((np.arange(u.shape[0]), -u0, -u))  # by u, then the power init u0, then index
    if rounding == "mass_capped":
        cap = max(1, int(round(float(u @ (M @ u)))))
        return tuple(sorted(reference_round_greedy(order, M, edges, cap))), False
    starts = [reference_round_greedy(order, M, edges, None), *([int(v)] for v in order[:16])]
    ends = [reference_climb(start, M, edges, order) for start in starts]
    top = max(density for density, _, _ in ends)
    indices = next(indices for density, indices, _ in ends if density >= top - 1e-12)
    near = any(abs(density - (top - 1e-12)) <= NEAR_TIE for density, _, _ in ends)
    return indices, near or any(tied for _, _, tied in ends)


def reference_solve(M, rounding):
    u, _ = dense_relaxation(M)
    indices, _ = reference_round(u, _perron_vector(M), M, binarize_constraints(M), rounding)
    return Selection(indices, u, reference_density(M, indices))


def parity_instances():
    """Random weighted, planted-block and scan-pair affinities (m = 16..200)."""
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        yield f"random-{seed}", random_gated_matrix(rng, int(rng.integers(12, 120)))
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(15, 80))
        block = sorted(int(v) for v in rng.choice(m, int(rng.integers(4, 9)), replace=False))
        yield f"planted-{seed}", planted_matrix(rng, m, block)
    for seed in range(4):
        scene = generate_scene(SceneConfig(n_lines=4, n_planes=10, seed=400 + seed))
        pair = make_loop_pair(scene, PairConfig(overlap=0.8, clutter=3 + 3 * seed, seed=500 + seed))
        for fn in DistanceFn:
            M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), fn)
            yield f"scan-{seed}-{fn.value}", M


# The ascent stops once a step moves u by less than tol = 1e-8, so sums taken
# over the working set instead of all m entries can end one step apart.
U_TOLERANCE = 1e-7


class TestWorkingSetParity:
    @pytest.fixture(scope="class")
    def instances(self):
        return list(parity_instances())

    @pytest.mark.parametrize("rounding", ROUNDING_RULES)
    def test_matches_dense_relaxation(self, instances, rounding):
        for name, M in instances:
            sel = solve_densest(M, rounding=rounding)
            ref = reference_solve(M, rounding)
            assert sel.indices == ref.indices, name
            assert sel.objective == ref.objective, name
            assert np.max(np.abs(sel.u - ref.u)) <= U_TOLERANCE, name

    def test_solver_stops_at_a_fixed_point(self, instances, monkeypatch):
        # Every stage the solver skips would return its final u unchanged.
        stages = []
        ascend = clique_solver._ascend

        def recording(M, edges, penalty, u, g, norms):
            stages.append((penalty, *ascend(M, edges, penalty, u, g, norms)))
            return stages[-1][1:]

        monkeypatch.setattr(clique_solver, "_ascend", recording)
        skipped = 0
        for name, M in instances:
            stages.clear()
            solve_densest(M)
            penalty, u, g, _, norms = stages[-1]
            edges = packed(M)
            while (penalty := penalty * _PENALTY_GROWTH) <= M.shape[0] + 1.0:
                u_next, g, moved, norms = ascend(M, edges, penalty, u, g, norms)
                assert not moved and np.array_equal(u_next, u), name
                skipped += 1
        assert skipped >= len(instances)

    def test_early_exit_is_exact(self, instances):
        exited = 0
        for name, M in instances:
            full, full_stages = dense_relaxation(M)
            early, early_stages = dense_relaxation(M, early_exit=True)
            assert np.array_equal(early, full), name
            exited += early_stages < full_stages
        assert exited >= len(instances) // 2


def formed_rows(M, edges, penalty, W):
    """Rows Md[W, :], formed whole with np.where, and the block Md[W, W]; all of
    Md as the solver's `_Penalized` product once |W| > m/2."""
    if 2 * W.size > M.shape[0]:
        Md = clique_solver._Penalized(M, edges, penalty)
        return np.arange(M.shape[0]), Md, Md
    rows = np.where(unpacked(edges[W], M.shape[0]), M[W], -penalty)
    return W, rows, rows[:, W]


# The ascent before the certified refresh: whole rows Md[C, :] held, and the
# full-length gradient v @ Md[C, :] recomputed after every accepted step.
def every_step_ascend(M, edges, penalty, u, g, norms):
    m = u.shape[0]
    C, rows, block = formed_rows(M, edges, penalty, np.flatnonzero((u > 0.0) | (g is None or g > 0.0)))
    g = u[C] @ rows
    f = None
    moved = False
    for _ in range(_MAX_ITERATIONS):
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        if 2 * W.size < C.size or not (np.take(C, np.searchsorted(C, W), mode="clip") == W).all():
            C, rows, block = formed_rows(M, edges, penalty, W)
        uC, gC = u[C], g[C]
        if f is None:
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
        g, f, alpha = (gv if rows is block else v @ rows), fv, step * 2.0
        if float(np.linalg.norm(v - uC)) < _TOL:
            break
    return u, g, moved, None


def scene_pair_affinities():
    """Two scan-pair affinities at m = 500..1000, where most steps work on rows
    of a working set well below m."""
    for seed, (n_lines, n_planes, clutter) in [(0, (7, 22, 6)), (1, (8, 28, 8))]:
        scene = generate_scene(SceneConfig(n_lines=n_lines, n_planes=n_planes, seed=600 + seed))
        pair = make_loop_pair(scene, PairConfig(overlap=0.8, clutter=clutter, seed=700 + seed))
        M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), DistanceFn.GRAFF_SHIFTED)
        yield f"scene-m{M.shape[0]}", M


def recording_held(monkeypatch):
    """Patch the solver so that held[0] is (C, S, penalty, Md[C, S]) of its current cache."""
    held = [None]
    refresh, working_set = clique_solver._refresh, clique_solver._working_set

    def recording_refresh(M, edges, penalty, C, v, S):
        out = refresh(M, edges, penalty, C, v, S)
        held[0] = (C, out[3], penalty, out[4])
        return out

    def recording_working_set(M, edges, penalty, u, g, norms):
        out = working_set(M, edges, penalty, u, g, norms)
        held[0] = (out[0], out[4], penalty, out[5])
        return out

    monkeypatch.setattr(clique_solver, "_refresh", recording_refresh)
    monkeypatch.setattr(clique_solver, "_working_set", recording_working_set)
    return held


class TestCertifiedRefresh:
    @pytest.fixture(scope="class")
    def instances(self):
        return list(parity_instances()) + list(scene_pair_affinities())

    def test_matches_every_step_refresh(self, instances, monkeypatch):
        assert [500 <= M.shape[0] <= 1000 for _, M in instances[-2:]] == [True, True]
        for name, M in instances:
            sel = solve_densest(M)
            with monkeypatch.context() as patch:
                patch.setattr(clique_solver, "_ascend", every_step_ascend)
                ref = solve_densest(M)
            assert sel.indices == ref.indices, name
            assert sel.objective == ref.objective, name
            assert np.max(np.abs(sel.u - ref.u)) <= U_TOLERANCE, name

    def test_returned_gradient_is_exact(self, instances, monkeypatch):
        # Exact on C | S up to the rounding the certificate allows for
        # (4 |C| eps |Md[C, i]|, |u| = 1), against a product with the formed
        # rows; <= 0 elsewhere, as the formed product is there too.
        stages = []
        ascend = clique_solver._ascend
        held = recording_held(monkeypatch)

        def recording_ascend(M, edges, penalty, u, g, norms):
            u, g, moved, norms = ascend(M, edges, penalty, u, g, norms)
            stages.append((M, edges, *held[0], u, g))
            return u, g, moved, norms

        monkeypatch.setattr(clique_solver, "_ascend", recording_ascend)
        full = partial = held_columns = 0
        for name, M in instances:
            stages.clear()
            solve_densest(M)
            for M, edges, C, S, penalty, _, u, g in stages:
                if C.size == M.shape[0]:  # all of Md: the solver's product, pinned by TestPenalizedProducts
                    assert S.size == 0 and np.array_equal(g, u @ clique_solver._Penalized(M, edges, penalty)), name
                    full += 1
                    continue
                rows = np.where(unpacked(edges[C], M.shape[0]), M[C], -penalty)
                exact, known = u[C] @ rows, np.zeros(M.shape[0], dtype=bool)
                known[C] = known[S] = True
                bound = 4.0 * C.size * np.finfo(float).eps * np.sqrt(np.einsum("ij,ij->j", rows, rows))
                assert (np.abs(g - exact) <= bound)[known].all(), name
                assert g[~known].max(initial=0.0) <= 0.0 and exact[~known].max(initial=0.0) <= 0.0, name
                partial += 1
                held_columns += S.size
        assert full > 0 and partial > 0 and held_columns > 0

    def test_each_stage_receives_the_last_stages_norms(self, instances, monkeypatch):
        # Stage 0 and any stage after one whose last build took all of Md get
        # None; any other gets the norms |Md[C, i]| of the last stage's last
        # build, the very array that stage returned.
        stages = []
        ascend = clique_solver._ascend
        held = recording_held(monkeypatch)

        def recording(M, edges, penalty, u, g, norms):
            out = ascend(M, edges, penalty, u, g, norms)
            stages.append((norms, out[3], *held[0]))
            return out

        monkeypatch.setattr(clique_solver, "_ascend", recording)
        after_wide = after_partial = 0
        for name, M in instances:
            stages.clear()
            solve_densest(M)
            edges = binarize_constraints(M)
            assert stages[0][0] is None, name
            for (_, returned, C, _, penalty, _), (given, *_) in zip(stages, stages[1:]):
                assert given is returned, name
                if C.size == M.shape[0]:
                    assert given is None, name
                    after_wide += 1
                    continue
                rows = np.where(edges[C], M[C], -penalty)
                assert np.all(np.abs(given - np.sqrt(np.einsum("ij,ij->j", rows, rows))) <= 1e-12 * given), name
                after_partial += 1
        assert after_wide > 0 and after_partial > 0

    def test_skipped_refreshes_are_sound(self, instances, monkeypatch):
        # At every step where the certificate holds, a formed product finds
        # g <= 0 on every column off C | S, and on S the step's product with
        # the held columns Md[C, S] equal to it up to the rounding the
        # certificate allows for (4 |C| eps |Md[C, i]|, |v| = 1).
        decisions = []
        held = recording_held(monkeypatch)
        lapsed = clique_solver._lapsed

        def checking(v, ref, radius):
            out = lapsed(v, ref, radius)
            C, S, penalty, cols = held[0]
            if C.size < M.shape[0]:  # a partial cache: all of Md needs no certificate
                decisions.append(not out)
                if not out:
                    rows = np.where(edges[C], M[C], -penalty)
                    formed, off = v @ rows, np.ones(M.shape[0], dtype=bool)
                    off[C] = off[S] = False
                    assert formed[off].max(initial=-np.inf) <= 0.0
                    bound = 4.0 * C.size * np.finfo(float).eps * np.sqrt(np.einsum("ij,ij->j", rows[:, S], rows[:, S]))
                    assert np.all(np.abs(v @ cols - formed[S]) <= bound)
            return out

        monkeypatch.setattr(clique_solver, "_lapsed", checking)
        for _, M in instances:
            edges = binarize_constraints(M)
            solve_densest(M)
        assert sum(decisions) >= 0.8 * len(decisions) > 1000

    def test_column_hidden_by_a_stale_screen_rebuilds_before_a_step(self, monkeypatch):
        # A build screens S by the gradient it is handed; a column that gradient
        # put far below 0 is neither in C nor in S, yet the pass finds it > 0.
        # The radius goes negative, and C is rebuilt around it before any step.
        M = np.eye(15)  # m = 15: both builds, |C| = 4 and 5, get a block
        M[:5, :5] = 0.9
        np.fill_diagonal(M, 1.0)
        u = np.zeros(15)
        u[:4] = 0.5
        g = u @ np.where(binarize_constraints(M), M, -_INITIAL_PENALTY)
        assert g[4] > 0.0
        g[4] = -5.0
        built, at_steps = [], []
        working_set, lapsed = clique_solver._working_set, clique_solver._lapsed

        def recording(*args):
            out = working_set(*args)
            built.append(out[0].tolist())
            return out

        def counting(v, ref, radius):
            at_steps.append(len(built))
            return lapsed(v, ref, radius)

        monkeypatch.setattr(clique_solver, "_working_set", recording)
        monkeypatch.setattr(clique_solver, "_lapsed", counting)
        clique_solver._ascend(M, packed(M), _INITIAL_PENALTY, u, g, np.ones(15))
        assert at_steps[0] == 2 and built[:2] == [[0, 1, 2, 3], [0, 1, 2, 3, 4]]


def affinity_near_1000():
    """One scan-pair affinity at m = 1002."""
    scene = generate_scene(SceneConfig(n_lines=9, n_planes=30, seed=801))
    pair = make_loop_pair(scene, PairConfig(overlap=0.8, clutter=8, seed=901))
    M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), DistanceFn.GRAFF_SHIFTED)
    assert M.shape == (1002, 1002)
    return M


class TestPenalizedProducts:
    """The penalized matrix Md = (M on edges, -penalty off them) is never
    formed: products with all of it go through `_Penalized`, and working-set
    rows are penalized in place."""

    @pytest.fixture(scope="class")
    def instances(self):
        return [*parity_instances(), *scene_pair_affinities(), ("scene-m1002", affinity_near_1000())]

    def test_wide_product_matches_formed_matrix(self, instances, monkeypatch):
        taken = []
        product = clique_solver._Penalized.__rmatmul__

        def recording(self, v):
            out = product(self, v)
            taken.append((self.penalty, v.copy(), out.copy()))
            return out

        monkeypatch.setattr(clique_solver._Penalized, "__rmatmul__", recording)
        assert len(instances) == 47
        for name, M in instances:
            taken.clear()
            solve_densest(M)
            edges = binarize_constraints(M)
            assert taken, name  # the first step of every solve uses all of Md
            for penalty, v, out in taken:
                assert np.max(np.abs(out - v @ np.where(edges, M, -penalty))) <= 1e-12, name
            # Every penalty of the schedule: the products grow with it, and so
            # does the rounding of both sides.
            v, penalty = _perron_vector(M), _INITIAL_PENALTY
            while penalty <= M.shape[0] + 1.0:
                out = v @ clique_solver._Penalized(M, packed(M), penalty)
                assert np.max(np.abs(out - v @ np.where(edges, M, -penalty))) <= 1e-12 * penalty, name
                penalty *= _PENALTY_GROWTH

    def test_held_entries_bitwise_equal_to_formed_rows(self):
        # Off-edge entries of -0.0 and -1e-13 pass validation and must come
        # out as -penalty exactly, as np.where makes them: in the block
        # Md[C, C], in columns read in the pass (S given) and in columns
        # screened by it and read after it (S None).  g and the norms are
        # sums over row blocks, equal to the formed ones up to rounding.
        rng = np.random.default_rng(17)
        m = 300
        M = random_gated_matrix(rng, m)
        off = np.argwhere(np.triu(M == 0.0, 1))
        for (i, j), value in zip(off[rng.permutation(len(off))[:400]], [-0.0, -1e-13] * 200):
            M[i, j] = M[j, i] = value
        assert clique_solver._validate_affinity(M) is not None
        edges = binarize_constraints(M)
        assert np.signbit(M[~edges]).any() and (M[~edges] == -1e-13).any()
        assert clique_solver._PASS_ROWS == 32
        screened = 0
        for size in (1, 31, 32, 33, 150):
            C = np.sort(rng.choice(m, size, replace=False))
            v = rng.uniform(0.0, 1.0, size)
            v /= np.linalg.norm(v)
            for penalty in (_INITIAL_PENALTY, 7.3, m + 1.0):
                ref = np.where(edges[C], M[C], -penalty)
                norms = np.sqrt(np.einsum("ij,ij->j", ref, ref))
                g, block, got_norms, S, cols, _ = clique_solver._refresh(M, packed(M), penalty, C, v, None)
                assert block.tobytes() == ref[:, C].tobytes()
                assert cols.tobytes() == ref[:, S].tobytes()
                assert np.all(np.abs(got_norms - norms) <= 1e-12 * norms)
                assert np.all(np.abs(g - v @ ref) <= 4.0 * size * np.finfo(float).eps * norms)
                screened += S.size
                given = rng.permutation(np.setdiff1d(np.arange(m), C))[:40]
                out = clique_solver._refresh(M, packed(M), penalty, C, v, given)
                assert out[3] is given and out[4].tobytes() == ref[:, given].tobytes()
                assert all(a.tobytes() == b.tobytes() for a, b in zip(out[:3], (g, block, got_norms)))
        assert screened > 0

    def test_peak_at_most_0_39_m_by_m_float_arrays(self, instances):
        # Above its input, a solve holds at most 0.39 of one m x m float
        # array's worth of bytes at m = 1002 (0.354 measured, plus 10%).  The
        # edge graph as an m x m bool array took 0.464 (its own 0.125 of them),
        # blocks from m/2 0.538, holding whole rows Md[C, :] 0.78 and forming
        # Md 1.14.
        M = instances[-1][1]
        m = M.shape[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_densest(M)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.39 * 8 * m * m


# The ascent before it kept u and g on the working set: full-length u and g
# after every accepted step, W and the W-in-C test over all m entries, and
# norms through np.linalg.norm.  It takes the solver's own cache, and the
# last stage's norms to screen the first build, so both take the same products.
# It settles as the solver does: when a third accepted step in a row keeps the
# support's size, with a block held or all of Md, it tries the solver's
# `_settle`, and a settled step ends the stage where no g > 0 lies off supp(u).
# Inside the radius of the last refresh, each step reads all of the held
# columns Md[C, S].  On all of Md, it builds a block once |W| <= m/3, and
# starts each line search from the last accepted step until the settle at
# the support's size has been tried, from twice it after that.
def full_length_ascend(M, edges, penalty, u, g, norms):
    m = u.shape[0]
    C, g, block, norms, S, cols, radius = clique_solver._working_set(M, edges, penalty, u, g, norms)
    ref, f = u[C], None
    moved, held, size = False, 0, int(np.count_nonzero(u))
    for _ in range(_MAX_ITERATIONS):
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        narrow = 3 * W.size <= m if norms is None else 2 * W.size < C.size
        if narrow or not (np.take(C, np.searchsorted(C, W), mode="clip") == W).all():
            block = cols = None
            C, g, block, norms, S, cols, radius = clique_solver._working_set(M, edges, penalty, u, g, norms)
            ref = u[C]
        uC, gC = u[C], g[C]
        if f is None:
            f = float(uC @ (gC if norms is None else uC @ block))
            alpha = 1.0 / max(1.0, abs(f))
        settled = False
        if held == 3:
            v = clique_solver._settle(block, uC)
            if v is not None:
                gv = v @ block
                fv = float(v @ gv)
                settled = fv >= f
        if not settled:
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
            alpha = step if norms is None and held <= 3 else step * 2.0
        moved = True
        n = int(np.count_nonzero(v))
        held, size = (held + 1 if n == size else 0), n
        u = np.zeros(m)
        u[C] = v
        if float(np.linalg.norm(v - ref)) > radius:
            S = clique_solver._screen(g, norms, C)
            g, block, norms, S, cols, radius = clique_solver._refresh(M, edges, penalty, C, v, S)
            ref = v
        else:
            g[S] = v @ cols
        g[C] = gv
        f = fv
        if settled and not (g[u == 0.0] > 0.0).any():
            break
        if float(np.linalg.norm(v - uC)) < _TOL:
            break
    return u, g, moved, norms


class TestWorkingSetArrays:
    def test_every_stage_bitwise_equal_to_full_length_ascend(self, monkeypatch):
        ascend = clique_solver._ascend
        stages = []

        def checking(M, edges, penalty, u, g, norms):
            ref = full_length_ascend(M, edges, penalty, u.copy(), None if g is None else g.copy(), norms)
            out = ascend(M, edges, penalty, u, g, norms)
            same_norms = (out[3] is None) == (ref[3] is None) and (out[3] is None or out[3].tobytes() == ref[3].tobytes())
            bitwise = all(a.tobytes() == b.tobytes() for a, b in zip(out[:2], ref[:2]))
            stages.append(out[2] == ref[2] and bitwise and same_norms)
            return out

        monkeypatch.setattr(clique_solver, "_ascend", checking)
        for name, M in [*parity_instances(), *scene_pair_affinities()]:
            count = len(stages)
            solve_densest(M)
            assert all(stages[count:]), name
        assert len(stages) > 300


def recording_settles(monkeypatch):
    """Patch `_ascend` and `_settle`: each stage is appended as (penalty, u
    returned, the settled vectors it took, over C, each with whether it was
    taken on all of Md, and attempts refused for a top eigenvector with an
    entry <= 0)."""
    stages, ascend, settle = [], clique_solver._ascend, clique_solver._settle

    def recording_ascend(M, edges, penalty, u, g, norms):
        stages.append([penalty, None, [], 0])
        out = ascend(M, edges, penalty, u, g, norms)
        stages[-1][1] = out[0]
        return out

    def recording_settle(block, uC):
        v = settle(block, uC)
        wide = isinstance(block, clique_solver._Penalized)
        if v is not None:
            stages[-1][2].append((v, wide))
        else:
            P = np.flatnonzero(uC)
            A = np.where(unpacked(block.edges, block.M.shape[0]), block.M, -block.penalty) if wide else block
            w = np.linalg.eigh(A[np.ix_(P, P)])[1][:, -1]
            stages[-1][3] += (w if w.sum() >= 0.0 else -w).min() <= 0.0
        return v

    monkeypatch.setattr(clique_solver, "_ascend", recording_ascend)
    monkeypatch.setattr(clique_solver, "_settle", recording_settle)
    return stages


def one_negative_entry_affinity():
    """Candidates 0 and 1 conflict, both tied to 2, 3 and 4, plus ten loners.
    While both are in supp(u) and the penalty exceeds their ties, the top
    eigenvector of Md[P, P] is negative on 1; the ascent must step on until
    u_1 reaches 0."""
    M = np.eye(15)
    M[:5, :5] = [
        [1.0, 0.0, 0.9, 0.8, 0.85],
        [0.0, 1.0, 0.82, 0.88, 0.8],
        [0.9, 0.82, 1.0, 0.95, 0.9],
        [0.8, 0.88, 0.95, 1.0, 0.92],
        [0.85, 0.8, 0.9, 0.92, 1.0],
    ]
    return M


class TestStageSettle:
    def test_settled_stages_end_at_kkt_points(self, monkeypatch):
        # A stage that ends on its settle returns the top eigenvector of
        # Md[P, P]: positive on P = supp(u), Md[P, P] u_P = theta u_P up to
        # Lanczos's tolerance, and the gradient u @ Md <= 0 off P.  Every
        # settle taken on all of Md, by Lanczos through products restricted
        # to P, is such an eigenvector of the formed Md[P, P], and some
        # stages end on one.
        stages = recording_settles(monkeypatch)
        ended = wide = 0
        for name, M in [*parity_instances(), *scene_pair_affinities()]:
            stages.clear()
            solve_densest(M)
            edges = binarize_constraints(M)
            for penalty, u, settled, _ in stages:
                Md = np.where(edges, M, -penalty)
                for v in [v for v, on_all_of_md in settled if on_all_of_md]:
                    P = v > 0.0
                    r = Md[np.ix_(P, P)] @ v[P]
                    assert np.max(np.abs(r - (v[P] @ r) * v[P])) <= 1e-9 * abs(v[P] @ r), name
                if not settled or settled[-1][0][settled[-1][0] > 0.0].tobytes() != u[u > 0.0].tobytes():
                    continue
                P = u > 0.0
                g = u @ Md
                theta = float(u @ g)
                assert np.max(np.abs(g[P] - theta * u[P])) <= 1e-9 * abs(theta), name
                assert g[~P].max(initial=-np.inf) <= 0.0, name
                ended += 1
                wide += settled[-1][1]
        assert ended > 200 and wide > 0

    def test_negative_eigenvector_entry_keeps_stepping(self, monkeypatch):
        M = one_negative_entry_affinity()
        stages = recording_settles(monkeypatch)
        solve_densest(M)
        assert sum(refused for *_, refused in stages) > 0
        assert sum(len(settled) for _, _, settled, _ in stages) > 0
        for rounding in ROUNDING_RULES:
            sel, ref = solve_densest(M, rounding=rounding), reference_solve(M, rounding)
            assert sel.indices == ref.indices and sel.objective == ref.objective
            assert np.max(np.abs(sel.u - ref.u)) <= U_TOLERANCE


def match_small_affinity(k):
    """Pair k of the benchmark's match_small inputs at seed 1, by its draw rule."""
    pair = ladder_pair(k % len(LADDER), *(int(s) for s in np.random.SeedSequence([1, 1, k]).generate_state(2)))
    return build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams())[0]


class TestWideStages:
    def test_a_wide_stage_settles_instead_of_stepping_on(self, monkeypatch):
        # On seed-1 match_small pairs 14 (m = 178) and 36 (m = 124), stage 0
        # held supp(u) at 90 of 178 and 62-63 of 124, above m/2, where no
        # block is built and no settle was tried: the stage stepped to its
        # 150-step cap, 302 and 332 products with all of Md per solve.  Now
        # the ascent takes 37 and 36, and the settles' Lanczos products
        # restricted to supp(u), which end those stages, 16 and 41 more.
        work = counted_work(monkeypatch)
        restricted, product = [0], clique_solver._Restricted.__matmul__

        def counting(self, x):
            restricted[0] += 1
            return product(self, x)

        monkeypatch.setattr(clique_solver._Restricted, "__matmul__", counting)
        for k in (14, 36):
            work["wide_products"] = restricted[0] = 0
            solve_densest(match_small_affinity(k))
            assert work["wide_products"] - restricted[0] <= 40, k
            assert 0 < restricted[0] <= 45, k

    def test_a_support_that_does_not_settle_drifts_by_growing_steps(self):
        # Criterion 4's random instance 61 (m = 11): stage 0 holds supp(u) at
        # 5 of 11 on all of Md, its settle is refused (the top eigenvector has
        # an entry <= 0), and the stage steps to its 150-step cap.  Never
        # doubling the step there ends the stage elsewhere, and the solve
        # rounds to (1, 10), density 1.7328, not the oracle's (1, 9), 1.7435.
        M = dict(criterion_4_random())["criterion-4-random-61"]
        assert solve_densest(M, rounding="mass_capped").indices == brute_force_densest(M).indices == (1, 9)


def counted_work(monkeypatch):
    """Patch the solver to count its work into the returned dict: global
    refreshes, blocks Md[C, C] built, `_penalized` row builds, products with
    all of Md, held-column entries read (|C| |S|, filled at a refresh and
    read at each step inside its radius), accepted ascent steps (settled
    ones included) and settle attempts."""
    keys = ("refreshes", "blocks", "row_builds", "wide_products", "held_entries", "ascent_steps", "settles")
    work = dict.fromkeys(keys, 0)
    refresh, penalized, lapsed = clique_solver._refresh, clique_solver._penalized, clique_solver._lapsed
    product, settle = clique_solver._Penalized.__rmatmul__, clique_solver._settle
    working_set = clique_solver._working_set
    held = [0]  # entries of the held columns Md[C, S]

    def counting_refresh(M, edges, penalty, C, v, S):
        out = refresh(M, edges, penalty, C, v, S)
        work["refreshes"] += 1
        work["blocks"] += out[1] is not None
        held[0] = out[4].size
        work["held_entries"] += held[0]
        return out

    def counting_working_set(M, edges, penalty, u, g, norms):
        out = working_set(M, edges, penalty, u, g, norms)
        held[0] = out[5].size  # none after all of Md
        return out

    def counting_penalized(*args, **kwargs):
        work["row_builds"] += 1
        return penalized(*args, **kwargs)

    def counting_product(self, v):
        work["wide_products"] += 1
        return product(self, v)

    def counting_lapsed(v, ref, radius):  # called once per accepted step
        out = lapsed(v, ref, radius)
        work["held_entries"] += 0 if out else held[0]
        work["ascent_steps"] += 1
        return out

    def counting_settle(block, uC):
        work["settles"] += 1
        return settle(block, uC)

    monkeypatch.setattr(clique_solver, "_refresh", counting_refresh)
    monkeypatch.setattr(clique_solver, "_working_set", counting_working_set)
    monkeypatch.setattr(clique_solver, "_penalized", counting_penalized)
    monkeypatch.setattr(clique_solver._Penalized, "__rmatmul__", counting_product)
    monkeypatch.setattr(clique_solver, "_lapsed", counting_lapsed)
    monkeypatch.setattr(clique_solver, "_settle", counting_settle)
    return work


class TestSolverWork:
    # Work per solve on the two scene pairs, counted with numpy 2.4.6 and
    # OpenBLAS 0.3.31 on x86-64.  Each part of the screened cache keeps a
    # count down: screening before the pass, by the last norms, the row
    # builds; the norms carried across stages and the read after the pass at
    # the first build after all of Md the refreshes; the stage settle the
    # ascent steps (201 and 304 without it).  Removing any of them fails
    # here.  No step on these pairs leaves its refresh's radius, so the
    # refreshes are the builds.  Each step inside
    # the radius reads all of Md[C, S] in one product, so the held entries
    # bound the screened set's size.  The settle ends a stage on the exact
    # eigenvector, from which a later stage's first trial can win on rounding
    # alone (moving u by 1e-16 to 4e-12): that adds one or two trailing
    # stages, each one refresh, block and row build or two (without the
    # settle: 18, 17 and 74 on scene-m548, 15, 15 and 55 on scene-m896).
    # Stage 0 starts on all of Md, builds its first block once |W| <= m/3 and
    # does not double its steps before that: against blocks from m/2 and
    # doubling, two more wide products on scene-m548 (supp(u) 259, then 95,
    # before the first block at 110) save three refreshes, 32 row builds and
    # 222k held entries; on scene-m896 the support leaves C twice more on its
    # way down (270 -> 230 -> 167), one more build, 11 row builds and 220k
    # held entries.
    RECORDED = {
        "scene-m548": dict(
            refreshes=15, blocks=15, row_builds=42, wide_products=4, held_entries=573055, ascent_steps=80, settles=13
        ),
        "scene-m896": dict(
            refreshes=15, blocks=15, row_builds=64, wide_products=4, held_entries=1545671, ascent_steps=79, settles=13
        ),
    }

    def test_work_at_most_the_recorded_counts(self, monkeypatch):
        work = counted_work(monkeypatch)
        for name, M in scene_pair_affinities():
            work.update(dict.fromkeys(work, 0))
            solve_densest(M)
            assert all(work[key] <= count for key, count in self.RECORDED[name].items()), (name, work)


class TestPackedEdges:
    @pytest.mark.parametrize("rounding", ROUNDING_RULES)
    def test_unvalidated_solve_as_the_public_entry_point(self, rounding):
        # The pipeline calls `_solve`, which skips validation; the public
        # entry point validates M first.  Both give the same Selection
        # bitwise on criterion 4's instances.
        instances = [*criterion_4_random(), *criterion_4_planted()]
        assert len(instances) == 300
        for name, M in instances:
            sel, unvalidated = solve_densest(M, rounding=rounding), clique_solver._solve(M, rounding)
            assert unvalidated.indices == sel.indices and unvalidated.u.tobytes() == sel.u.tobytes(), name
            assert unvalidated.objective == sel.objective, name

    def test_public_entry_point_packs_the_binarized_graph(self, monkeypatch):
        # The bits a solve packs from M, once, are binarize_constraints(M)
        # packed, padded rows included; an empty M packs none.
        packed_bits, edge_bits = [], clique_solver._edge_bits

        def recording(M):
            packed_bits.append(edge_bits(M))
            return packed_bits[-1]

        monkeypatch.setattr(clique_solver, "_edge_bits", recording)
        for m in (0, 1, 7, 8, 9, 17, 130):
            M = random_gated_matrix(np.random.default_rng(m), m)
            packed_bits.clear()
            solve_densest(M)
            assert len(packed_bits) == (m > 0), m
            assert all(b.dtype == np.uint8 and b.tobytes() == packed(M).tobytes() for b in packed_bits), m


def fixed_power_init(M):
    """The power method from the uniform vector, always _POWER_ITERATIONS products: the start vector's reference."""
    u = np.full(M.shape[0], 1.0 / np.sqrt(M.shape[0]))
    for _ in range(_POWER_ITERATIONS):
        v = M @ u
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            break
        u = v / norm
    return u


def criterion_4_random():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 16))
        A = rng.uniform(0, 1, (m, m))
        A = (A + A.T) / 2
        gate = rng.uniform(0, 1, (m, m))
        gate = np.minimum(gate, gate.T)
        A[gate < 0.5] = 0.0
        np.fill_diagonal(A, 1.0)
        yield f"criterion-4-random-{seed}", A


def criterion_4_planted():
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        block = sorted(int(v) for v in rng.choice(15, 5, replace=False))
        A = rng.uniform(0.0, 0.3, (15, 15))
        A = (A + A.T) / 2
        mask = rng.uniform(0, 1, (15, 15))
        mask = (mask + mask.T) / 2
        A[mask < 0.5] = 0.0
        A[np.ix_(block, block)] = 1.0
        np.fill_diagonal(A, 1.0)
        yield f"criterion-4-planted-{seed}", A


def reference_lanczos_stop(A, q=None):
    """Products and Ritz vector at which Lanczos from the unit vector q0 = q
    (the uniform vector if None) is to stop: the first step from _RITZ_FIRST
    on whose top Ritz pair (theta, x) of A on the Krylov basis Q has
    |Ax - theta x| <= _RITZ_TOL * theta, a step whose new direction vanishes
    (norm <= _RITZ_TOL * q0'A q0), or min(n, _POWER_ITERATIONS) steps.  Q is
    orthonormalized twice by Gram-Schmidt, and the Ritz pairs come from all
    of Q'AQ, not a tridiagonal.  x is returned nonnegative and unit, as the
    start vector takes it."""
    n, cap = A.shape[0], min(A.shape[0], _POWER_ITERATIONS)
    Q = np.full((1, n), 1.0 / np.sqrt(n)) if q is None else q[None, :].copy()
    first = float(Q[0] @ A @ Q[0])
    for steps in range(1, cap + 1):
        theta, S = np.linalg.eigh(Q @ A @ Q.T)
        x = S[:, -1] @ Q
        w = A @ Q[-1]
        for _ in range(2):
            w = w - (Q @ w) @ Q
        if steps == cap or np.linalg.norm(w) <= _RITZ_TOL * first:
            break
        if steps >= _RITZ_FIRST and np.linalg.norm(A @ x - theta[-1] * x) <= _RITZ_TOL * theta[-1]:
            break
        Q = np.vstack([Q, w / np.linalg.norm(w)])
    x = np.maximum(x if x.sum() >= 0.0 else -x, 0.0)
    return steps, x / np.linalg.norm(x)


def counted_matvecs(M):
    """M as an array that counts the products M @ x taken of it."""

    class Counting(np.ndarray):
        calls = 0

        def __matmul__(self, other):
            Counting.calls += 1
            return np.asarray(self) @ other

    return M.view(Counting), Counting


class TestPerronStartVector:
    @pytest.mark.parametrize("rounding", ROUNDING_RULES)
    def test_keeps_selections(self, rounding, monkeypatch):
        for name, M in [*parity_instances(), *criterion_4_planted()]:
            sel = solve_densest(M, rounding=rounding)
            with monkeypatch.context() as patch:
                patch.setattr(clique_solver, "_perron_vector", fixed_power_init)
                ref = solve_densest(M, rounding=rounding)
            assert sel.indices == ref.indices, name
            assert sel.objective == ref.objective, name

    def test_nonnegative_unit_and_close_to_the_power_method(self):
        for name, M in parity_instances():
            u = _perron_vector(M)
            assert u.min() >= 0.0, name
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-15, name
            assert np.max(np.abs(u - fixed_power_init(M))) <= 1e-8, name

    def test_scan_affinities_take_at_most_20_products(self):
        for name, M in parity_instances():
            if name.startswith("scan-"):
                counted, counter = counted_matvecs(M)
                _perron_vector(counted)
                assert counter.calls <= 20, name

    def test_stops_at_the_first_passing_ritz_step(self):
        # Every step from _RITZ_FIRST on checks its Ritz pair, whatever m: a
        # step skipped by the check would cost one product more.
        blocks = block_diag_ones([3, 5])
        blocks[:3, :3] = 0.9
        np.fill_diagonal(blocks, 1.0)
        stops = []
        for name, M in [
            *parity_instances(), *scene_pair_affinities(), *list(criterion_4_random())[:20],
            ("identity", np.eye(7)), ("single", np.ones((1, 1))), ("blocks", blocks),
        ]:
            steps, x = reference_lanczos_stop(M)
            counted, counter = counted_matvecs(M)
            u = _perron_vector(counted)
            assert counter.calls == steps, name
            assert np.max(np.abs(u - x)) <= 1e-10, name
            stops.append(steps)
        # Stops an odd number of steps past _RITZ_FIRST, at m < 512 too.
        assert sum((steps - _RITZ_FIRST) % 2 for steps in stops[:40] if steps > _RITZ_FIRST) > 5

    def test_single_candidate(self):
        counted, counter = counted_matvecs(np.ones((1, 1)))
        assert np.array_equal(_perron_vector(counted), [1.0])
        assert counter.calls == 1

    def test_identity_stops_at_once(self):
        counted, counter = counted_matvecs(np.eye(7))
        assert np.allclose(_perron_vector(counted), 1.0 / np.sqrt(7), rtol=0.0, atol=1e-15)
        assert counter.calls == 1

    def test_disconnected_blocks(self):
        # Two blocks of 3 and 5: the uniform start lies in a two-dimensional
        # invariant subspace, so Lanczos ends there, on the larger block's
        # Perron vector that the power method reaches by draining the smaller
        # block at rate 2.8/5; the larger block is selected either way.
        M = block_diag_ones([3, 5])
        M[:3, :3] = 0.9
        np.fill_diagonal(M, 1.0)
        counted, counter = counted_matvecs(M)
        u = _perron_vector(counted)
        assert counter.calls < _POWER_ITERATIONS
        assert np.max(np.abs(u - fixed_power_init(M))) <= 1e-7
        assert solve_densest(M).indices == (3, 4, 5, 6, 7)


class TestSettleLanczos:
    def test_stops_at_the_reference_step(self, monkeypatch):
        # A settle above _SETTLE_DIRECT entries runs the start vector's
        # Lanczos schedule on Md[P, P] from u_P: it stops at the step the
        # reference names, on the same eigenvector, and passes there.
        blocks, settle = [], clique_solver._settle

        def recording(block, uC):
            P = np.flatnonzero(uC)
            if P.size > clique_solver._SETTLE_DIRECT:
                blocks.append((block[np.ix_(P, P)], uC[P]))
            return settle(block, uC)

        monkeypatch.setattr(clique_solver, "_settle", recording)
        for _, M in scene_pair_affinities():
            solve_densest(M)
        assert len(blocks) >= 20
        for A, q in blocks:
            steps, x = reference_lanczos_stop(A, q)
            counted, counter = counted_matvecs(A)
            w, passed = clique_solver._lanczos(counted, q)
            assert counter.calls == steps and passed
            w = np.maximum(w if w.sum() >= 0.0 else -w, 0.0)
            assert np.max(np.abs(w / np.linalg.norm(w) - x)) <= 1e-10


def ladder_affinities():
    for rung in range(len(LADDER)):
        pair = ladder_pair(rung)
        for fn in DistanceFn:
            M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), fn)
            yield f"ladder-{rung}-{fn.value}", M
    # Pairs of the benchmark's match_small inputs at seed 1.  In 95 the
    # densest end needs a drop after the growth by adds; in 188 a vertex
    # raises the density only once another non-member is in, so the order
    # of the moves decides the end set.
    for k in (95, 188):
        yield f"match-small-{k}", match_small_affinity(k)


def quantized_instances():
    for seed in (*range(100), 756, 905):
        rng = np.random.default_rng(seed)
        yield f"quantized-{seed}", quantized_matrix(rng, int(rng.integers(12, 40)))


class TestVectorizedRounding:
    @pytest.fixture(scope="class")
    def instances(self):
        return [*parity_instances(), *criterion_4_random(), *criterion_4_planted(), *ladder_affinities(),
                *scene_pair_affinities(), *quantized_instances()]

    @pytest.mark.parametrize("rounding", ROUNDING_RULES)
    def test_matches_reference_loops(self, instances, rounding):
        # The solver's own iterate, rounded by the reference loops.  Where
        # moves tie in exact arithmetic (the quantized instances have many
        # such), whether the solver's running sums or the reference's fresh
        # ones rank a tied move first depends on the order each was summed
        # in; a selection that differs there need only be feasible and no
        # less dense.
        assert len(instances) == 44 + 300 + 27 + 2 + 102
        for name, M in instances:
            sel = solve_densest(M, rounding=rounding)
            edges = binarize_constraints(M)
            ref, tied = reference_round(sel.u, _perron_vector(M), M, edges, rounding)
            if sel.indices != ref and tied:
                S = list(sel.indices)
                assert edges[np.ix_(S, S)].all(), name
                assert sel.objective >= reference_density(M, ref) - 1e-12, name
                continue
            assert sel.indices == ref, name
            assert sel.objective == reference_density(M, ref), name

    def test_ties_go_to_the_best_rank(self):
        # Columns tied on the largest entry, -inf rows (no feasible move)
        # included, go to the smallest rank, whatever their label.
        A = np.array([[1.0, 3.0, 3.0, 2.0], [-np.inf] * 4, [0.0, 1.0, 2.0, 3.0], [5.0, 0.0, 0.0, 5.0]])
        rank = np.array([3, 2, 1, 0])
        assert clique_solver._best_ranked(A, rank).tolist() == [2, 3, 3, 3]
        assert clique_solver._best_ranked(A, rank[::-1].copy()).tolist() == [1, 0, 3, 0]

    def test_greedy_density_ends_at_a_local_optimum(self, instances):
        # Feasible, and no single add or drop raises the density, summed
        # afresh, by more than 1e-12.
        for name, M in instances:
            S = list(solve_densest(M).indices)
            edges = binarize_constraints(M)
            assert edges[np.ix_(S, S)].all(), name
            feasible = edges[:, S].all(axis=1)
            feasible[S] = False
            moves = [S + [int(v)] for v in np.flatnonzero(feasible)]
            moves += [[s for s in S if s != v] for v in S] if len(S) > 1 else []
            best = max((reference_density(M, move) for move in moves), default=-np.inf)
            assert best <= reference_density(M, S) + 1e-12, name
