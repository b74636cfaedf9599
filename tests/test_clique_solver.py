import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import LADDER, ladder_pair
from graffassoc import (
    CampaignConfig,
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
    ROUNDING_RULES,
    _perron_vector,
)
from graffassoc.scene_sim import _derive_seeds


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


# The references of earlier designs end a stage once an accepted step moves u
# by less than this; the solver has no such stop.
_TOL = 1e-8


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
    u, theta = _perron_vector(M)
    penalty = _INITIAL_PENALTY * theta
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
    indices, _ = reference_round(u, _perron_vector(M)[0], M, binarize_constraints(M), rounding)
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


# Bound on |u' - u| over the stages the solver skips: 3.7e-16 measured on the
# parity instances, 2.0e-13 on the seed-1 benchmark affinities.
SKIPPED_STAGE_DRIFT = 1e-12

# The dense reference (`dense_ascend`) stops once a step moves u by less than
# _TOL = 1e-8; the solver's stages end only on a KKT settle, a failed line
# search or the step cap, so the two iterates can differ by about one such
# step.
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
        # The solver stops after a stage that took no step, or that ended on a
        # settle at a KKT point (the top eigenvector of Md[P, P], g <= 0 off
        # P = supp(u)), once W = supp(u) | {g > 0} holds no non-edge.  Every
        # stage it skips would move u by rounding at most, and round to the
        # same selection under both rules: a larger penalty leaves Md on W as
        # it is, so a later stage's trial is u again and can win only on the
        # last bits of u'(Md)u.
        stages = []
        ascend = clique_solver._ascend

        def recording(M, edges, penalty, u, g, norms):
            stages.append((penalty, *ascend(M, edges, penalty, u, g, norms)))
            return stages[-1][1:]

        monkeypatch.setattr(clique_solver, "_ascend", recording)
        skipped = rounded = 0
        for name, M in instances:
            selected = {rounding: solve_densest(M, rounding=rounding).indices for rounding in ROUNDING_RULES}
            penalty, u, g, _, norms = stages[-1]
            edges, u0, u_next = packed(M), _perron_vector(M)[0], u
            stages.clear()
            while (penalty := penalty * _PENALTY_GROWTH) <= M.shape[0] + 1.0:
                u_next, g, _, norms = ascend(M, edges, penalty, u_next, g, norms)
                assert np.max(np.abs(u_next - u)) <= SKIPPED_STAGE_DRIFT, name
                for rounding, indices in selected.items():
                    assert clique_solver._round(u_next, u0, M, edges, rounding) == indices, (name, rounding)
                skipped += 1
            rounded += not np.array_equal(u_next, u)
        assert skipped >= len(instances) and rounded > 0

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
    """Patch the solver so that held[0] is (C, S, penalty, Md[C, S]) of its current cache,
    which only `_working_set` builds."""
    held = [None]
    working_set = clique_solver._working_set

    def recording_working_set(M, edges, penalty, u, g, norms):
        out = working_set(M, edges, penalty, u, g, norms)
        held[0] = (out[0], out[4], penalty, out[5])
        return out

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

    def test_a_step_past_the_radius_rebuilds_through_the_working_set(self, instances, monkeypatch):
        # A step that leaves the radius of the last refresh counts as W leaving
        # C: the next step runs on a cache that `_working_set` built at that
        # step's iterate, C recomputed there.
        events, lapsed_in = [], []
        working_set, lapsed = clique_solver._working_set, clique_solver._lapsed

        def recording_working_set(M, edges, penalty, u, g, norms):
            out = working_set(M, edges, penalty, u, g, norms)
            events.append(("build", u.copy(), out[0]))
            return out

        def recording_lapsed(v, ref, radius):
            out = lapsed(v, ref, radius)
            events.append(("step", v.copy(), ref.copy(), out))
            return out

        monkeypatch.setattr(clique_solver, "_working_set", recording_working_set)
        monkeypatch.setattr(clique_solver, "_lapsed", recording_lapsed)
        for name, M in instances:
            events.clear()
            solve_densest(M)
            for i, event in enumerate(events):
                if event[0] == "build":
                    C = event[2]
                    continue
                if not event[3]:
                    continue
                lapsed_in.append(name)
                if i + 1 == len(events):  # the solve's last step
                    continue
                u = np.zeros(M.shape[0])
                u[C] = event[1]
                kind, built, C_next = events[i + 1]
                assert kind == "build" and np.array_equal(built, u), name
                if i + 2 < len(events) and events[i + 2][0] == "step":
                    assert np.array_equal(events[i + 2][2], built[C_next]), name
        assert len(set(lapsed_in)) >= 5, lapsed_in  # 20 steps in 11 of the 46 instances

    def test_column_hidden_by_a_stale_screen_rebuilds_before_a_step(self, monkeypatch):
        # A build screens S by the gradient it is handed; a column that gradient
        # put far below 0 is neither in C nor in S, yet the pass finds it > 0.
        # The radius goes negative, and C is rebuilt around it before any step.
        M = np.eye(15)  # m = 15: both builds, |C| = 4 and 5, get a block
        M[:5, :5] = 0.9
        np.fill_diagonal(M, 1.0)
        u = np.zeros(15)
        u[:4] = 0.5
        g = u @ np.where(binarize_constraints(M), M, -0.25)
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
        clique_solver._ascend(M, packed(M), 0.25, u, g, np.ones(15))
        assert at_steps[0] == 2 and built[:2] == [[0, 1, 2, 3], [0, 1, 2, 3, 4]]


def match_large_sized_affinity():
    """A scan-pair affinity of the benchmark's match_large size: 14 lines and
    46 planes a scan, clutter 10, m = 2220."""
    scene = generate_scene(SceneConfig(n_lines=14, n_planes=46, seed=4))
    pair = make_loop_pair(scene, PairConfig(baseline_m=8.0, overlap=0.8, clutter=10, seed=5))
    M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams())
    assert M.shape == (2220, 2220)
    return M


def recording_screens(monkeypatch):
    """Patch `_screen` so that each call with column norms appends (|C|, |S|, the
    number of columns off C with slack below _SCREEN) to the returned list; a
    call without them (the first build after all of Md) screens no column."""
    screens, screen = [], clique_solver._screen

    def recording(g, norms, C):
        S = screen(g, norms, C)
        if norms is not None:
            slack = -g / norms
            slack[C] = np.inf
            screens.append((C.size, S.size, np.count_nonzero(slack < clique_solver._SCREEN)))
        return S

    monkeypatch.setattr(clique_solver, "_screen", recording)
    return screens


class TestScreenCap:
    """`_screen` holds at most |C| columns off C, so Md[C, S] never outgrows
    the block Md[C, C]; the radius is taken over every other column off C."""

    def test_keeps_the_least_slack_columns_ties_by_index(self):
        rng = np.random.default_rng(23)
        m, binding = 400, 0
        for size in (1, 7, 60, 150, 390):
            C = np.sort(rng.choice(m, size, replace=False))
            g = np.round(rng.uniform(-1.0, 0.1, m), 2)  # two decimals: many slacks tie
            norms = np.where(rng.uniform(0.0, 1.0, m) < 0.5, 1.0, 2.0)
            S = clique_solver._screen(g, norms, C)
            slack = -g / norms
            slack[C] = np.inf
            below = np.flatnonzero(slack < clique_solver._SCREEN)
            dropped = np.setdiff1d(below, S)
            assert S.size == min(C.size, below.size) and np.all(np.diff(S) > 0) and np.isin(S, below).all()
            assert max(zip(slack[S], S), default=(-np.inf, -1)) < min(zip(slack[dropped], dropped), default=(np.inf, m))
            binding += dropped.size > 0
        assert binding >= 3

    def test_never_more_than_c_columns_in_a_solve(self, monkeypatch):
        screens = recording_screens(monkeypatch)
        for _, M in scene_pair_affinities():
            solve_densest(M)
        assert screens and all(held <= size for size, held, _ in screens)
        assert any(below > size for size, _, below in screens)  # the cap binds

    def test_a_capped_refresh_still_certifies_its_radius(self, monkeypatch):
        # At m = 2220 more than |C| columns off C have slack below _SCREEN at
        # some refreshes.  There, anywhere within the radius of the refresh
        # point v, g stays <= 0 on every column off C | S, those past the cap
        # included: g_i(v) + radius |Md[C, i]|, from the formed rows, is <= 0.
        # So does the first build after all of Md, which has no norms to
        # screen by and holds no column off C.
        M = match_large_sized_affinity()
        edges = binarize_constraints(M)
        screens, refresh, certified = recording_screens(monkeypatch), clique_solver._refresh, []
        seen = [0]  # screens recorded before this refresh: one more if it was screened by norms

        def checking(M, packed_edges, penalty, C, v, S):
            out = refresh(M, packed_edges, penalty, C, v, S)
            S, radius, screened, seen[0] = out[3], out[5], len(screens) > seen[0], len(screens)
            if (not screened or screens[-1][2] > C.size) and radius >= 0.0:
                off = np.ones(M.shape[0], dtype=bool)
                off[C] = off[S] = False
                rows = np.where(edges[np.ix_(C, off)], M[np.ix_(C, off)], -penalty)
                worst = v @ rows + radius * np.sqrt(np.einsum("ij,ij->j", rows, rows))
                certified.append((screened, S.size == (C.size if screened else 0), worst.max()))
            return out

        monkeypatch.setattr(clique_solver, "_refresh", checking)
        solve_densest(M, rounding="mass_capped")
        assert any(screened for screened, *_ in certified), certified
        assert all(full and worst <= 0.0 for _, full, worst in certified), certified


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
            v, theta = _perron_vector(M)
            penalty = _INITIAL_PENALTY * theta
            while penalty <= M.shape[0] + 1.0:
                out = v @ clique_solver._Penalized(M, packed(M), penalty)
                assert np.max(np.abs(out - v @ np.where(edges, M, -penalty))) <= 1e-12 * penalty, name
                penalty *= _PENALTY_GROWTH

    def test_held_entries_bitwise_equal_to_formed_rows(self):
        # Off-edge entries of -0.0 and -1e-13 pass validation and must come
        # out as -penalty exactly, as np.where makes them: in the block
        # Md[C, C] and in the held columns Md[C, S], read in the same pass (S
        # empty, as at the first build after all of Md, or 40 columns).  g
        # and the norms are sums over row blocks, equal to the formed ones up
        # to rounding.
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
        for size in (1, 31, 32, 33, 150):
            C = np.sort(rng.choice(m, size, replace=False))
            v = rng.uniform(0.0, 1.0, size)
            v /= np.linalg.norm(v)
            for penalty in (0.25, 7.3, m + 1.0):
                ref = np.where(edges[C], M[C], -penalty)
                norms = np.sqrt(np.einsum("ij,ij->j", ref, ref))
                for given in (np.zeros(0, dtype=np.intp), rng.permutation(np.setdiff1d(np.arange(m), C))[:40]):
                    g, block, got_norms, S, cols, _ = clique_solver._refresh(M, packed(M), penalty, C, v, given)
                    assert S is given and cols.tobytes() == ref[:, given].tobytes()
                    assert block.tobytes() == ref[:, C].tobytes()
                    assert np.all(np.abs(got_norms - norms) <= 1e-12 * norms)
                    assert np.all(np.abs(g - v @ ref) <= 4.0 * size * np.finfo(float).eps * norms)

    def test_peak_at_most_0_35_m_by_m_float_arrays(self, instances):
        # Above its input, a solve holds at most 0.35 of one m x m float
        # array's worth of bytes at m = 1002 (0.312 measured, plus 12%).
        # Holding every screened column, not only the |C| of least slack, took
        # 0.354, the edge graph as an m x m bool array 0.464 (its own 0.125 of
        # them), blocks from m/2 0.538, holding whole rows Md[C, :] 0.78 and
        # forming Md 1.14.
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
        assert peak <= 0.35 * 8 * m * m


# The ascent before it kept u and g on the working set: full-length u and g
# after every accepted step, W and the W-in-C test over all m entries, and
# norms through np.linalg.norm.  It takes the solver's own cache, and the
# last stage's norms to screen the first build, so both take the same products.
# It settles as the solver does: when a third accepted step in a row keeps the
# support's size, with a block held or all of Md, it tries the solver's
# `_settle`, and a settled step ends the stage where no g > 0 lies off supp(u),
# at a fixed point.
# Each step reads all of the held columns Md[C, S].  On all of Md, it builds
# a block once |W| <= m/3, and starts each line search from the last accepted
# step until the settle at the support's size has been tried, from twice it
# after that.  The cache is rebuilt, through `_working_set` alone, only when
# W leaves C or the step before left the radius of the last refresh; a stage
# ends only at a KKT settle inside that radius, a failed line search or the
# step cap.  A settled step that the cache cannot certify (it left the radius,
# or W left C) is tested again on the rebuilt cache, whose g is exact at u on
# every column, before any line search.
def full_length_ascend(M, edges, penalty, u, g, norms):
    m = u.shape[0]
    C, g, block, norms, S, cols, radius = clique_solver._working_set(M, edges, penalty, u, g, norms)
    ref, f = u[C], None
    moved, lapsed, settled, held, size = False, False, False, 0, int(np.count_nonzero(u))
    for _ in range(_MAX_ITERATIONS):
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        narrow = norms is None and 3 * W.size <= m
        if lapsed or narrow or not (np.take(C, np.searchsorted(C, W), mode="clip") == W).all():
            block = cols = None
            C, g, block, norms, S, cols, radius = clique_solver._working_set(M, edges, penalty, u, g, norms)
            ref = u[C]
            if settled and radius >= 0.0 and not (g[u == 0.0] > 0.0).any():
                return u, g, True, norms
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
        lapsed = float(np.linalg.norm(v - ref)) > radius
        g[S] = v @ cols
        g[C] = gv
        f = fv
        if settled and not lapsed and not (g[u == 0.0] > 0.0).any():
            return u, g, True, norms
    return u, g, not moved, norms


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
        instances = [*parity_instances(), *scene_pair_affinities(), *ladder_affinities(), *settled_past_the_radius()]
        for name, M in instances:
            count = len(stages)
            solve_densest(M)
            assert all(stages[count:]), name
        assert len(stages) > 250  # 425 stages; 248 without the ladder and the five pins, 268 from the penalty 0.25


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

    def test_a_settle_past_the_radius_ends_its_stage_on_the_rebuilt_cache(self, monkeypatch):
        # A settled step at a KKT point can leave the certified radius, or its
        # W can leave C.  The cache `_working_set` rebuilds at that iterate
        # then certifies it, and the stage ends there, fixed, before any line
        # search: from the eigenvector one finds no ascent after 40 halvings
        # and would end the stage unsettled, barring the exit after it.
        events, ends = [], []
        working_set, lapsed, ascend = clique_solver._working_set, clique_solver._lapsed, clique_solver._ascend

        def recording_working_set(*args):
            events.append("build")
            return working_set(*args)

        def recording_lapsed(*args):
            events.append("step")
            return lapsed(*args)

        def recording_ascend(M, edges, penalty, u, g, norms):
            events.clear()
            out = ascend(M, edges, penalty, u, g, norms)
            if "step" in events and events[-1] == "build":  # no step after the last build
                ends.append((penalty, out[0], out[2]))
            return out

        monkeypatch.setattr(clique_solver, "_working_set", recording_working_set)
        monkeypatch.setattr(clique_solver, "_lapsed", recording_lapsed)
        monkeypatch.setattr(clique_solver, "_ascend", recording_ascend)
        for name, M in settled_past_the_radius():
            ends.clear()
            solve_densest(M)
            assert len(ends) == 1, name
            penalty, u, fixed = ends[0]
            assert fixed, name
            Md = np.where(binarize_constraints(M), M, -penalty)
            P, g = u > 0.0, u @ Md
            theta = float(u @ g)
            assert np.max(np.abs(g[P] - theta * u[P])) <= 1e-9 * abs(theta), name
            assert g[~P].max(initial=-np.inf) <= 0.0, name

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


def match_small_affinity(k, fn=DistanceFn.GRAFF_SHIFTED):
    """The affinity under `fn` of pair k of the benchmark's match_small inputs at seed 1, by its draw rule."""
    pair = ladder_pair(k % len(LADDER), *(int(s) for s in np.random.SeedSequence([1, 1, k]).generate_state(2)))
    return build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), fn)[0]


# Seed-1 match_small pairs (k, distance function) with a stage whose settled
# step leaves the certified radius at a KKT point.
SETTLED_PAST_THE_RADIUS = (
    (199, DistanceFn.GRAFF_SHIFTED), (148, DistanceFn.GR_ONLY), (14, DistanceFn.EUCLIDEAN_CENTROID),
    (139, DistanceFn.EUCLIDEAN_CENTROID), (173, DistanceFn.EUCLIDEAN_CENTROID),
)


def settled_past_the_radius():
    for k, fn in SETTLED_PAST_THE_RADIUS:
        yield f"match-small-{k}-{fn.value}", match_small_affinity(k, fn)


class TestWideStages:
    def test_a_wide_stage_settles_instead_of_stepping_on(self, monkeypatch):
        # Stage 0 of seed-1 match_small pairs 13 (m = 170) and 36 (m = 124)
        # holds supp(u) above m/3, where no block is built, and settles
        # there: the ascent takes 23 and 33 products with all of Md, and the
        # settles' Lanczos products restricted to supp(u), which end those
        # stages, 23 and 15 more.  Before the wide settle, such a stage
        # stepped to its 150-step cap: pairs 14 (m = 178) and 36, then
        # started at penalty 0.25, took 302 and 332 products with all of Md
        # per solve.  From theta/32, pair 14's support falls under m/3
        # within its first ten products and settles on a block.
        work = counted_work(monkeypatch)
        restricted, product = [0], clique_solver._Restricted.__matmul__

        def counting(self, x):
            restricted[0] += 1
            return product(self, x)

        monkeypatch.setattr(clique_solver._Restricted, "__matmul__", counting)
        for k in (13, 36):
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


def campaign_mix_affinity(k, tier, fn):
    """The affinity under `fn` of the `tier` pair of the benchmark's campaign_mix input k at seed 1."""
    cfg = CampaignConfig(seed=int(np.random.SeedSequence([1, 2, k]).generate_state(1)[0]), trials=1)
    scene_seed, pair_seed = _derive_seeds(cfg.seed, cfg.tiers.index(tier), 0)
    scene = generate_scene(replace(cfg._scene, seed=scene_seed))
    pair = make_loop_pair(scene, replace(cfg._pairs[tier], seed=pair_seed))
    return build_affinity(pair.scan_i, pair.scan_j, cfg._params, fn)[0]


class TestStageEnds:
    # The ascent once also ended a stage when a step moved u by less than
    # 1e-8, and rebuilt a block when W fell under half of C.  Over the 448
    # seed-1 benchmark affinities the first fired on match_small pairs 93
    # (m = 170), 145 and 185 (m = 110), the second only on campaign_mix
    # input 14's medium graff_shifted pair (m = 502).  The indices were
    # recorded with those rules in place, one tuple per entry of
    # ROUNDING_RULES; without them each stage runs on to a KKT settle, a
    # failed line search or the step cap.
    SELECTED = {
        "match-small-93": (
            (3, 4, 8, 9, 16, 28, 40, 57, 71, 84, 93, 98, 124, 164),
            (3, 8, 9, 28, 71, 84, 124, 164),
        ),
        "match-small-145": ((4, 8, 10, 16, 32, 55, 58, 69, 81, 84, 101),) * 2,
        "match-small-185": (
            (4, 6, 10, 17, 28, 48, 62, 69, 77, 85, 108),
            (4, 6, 10, 17, 28, 48, 62, 77, 85, 108),
        ),
        "campaign-mix-14-medium": (
            (7, 12, 21, 26, 40, 89, 126, 142, 178, 213, 240, 252, 315, 339, 357, 374, 411, 430, 447, 448, 463, 501),
        ) * 2,
    }

    @pytest.mark.parametrize("name", list(SELECTED))
    def test_inputs_that_reached_the_retired_rules_keep_their_selections(self, name):
        if name.startswith("match-small"):
            M = match_small_affinity(int(name.rsplit("-", 1)[1]))
        else:
            M = campaign_mix_affinity(14, "medium", DistanceFn.GRAFF_SHIFTED)
        for rounding, indices in zip(ROUNDING_RULES, self.SELECTED[name]):
            assert solve_densest(M, rounding=rounding).indices == indices, rounding


def counted_work(monkeypatch):
    """Patch the solver to count its work into the returned dict: penalty
    stages, global refreshes, blocks Md[C, C] built, `_penalized` row
    builds, products with all of Md, held-column entries read (|C| |S|,
    filled at a refresh and read at each step), accepted ascent steps
    (settled ones included) and settle attempts."""
    keys = ("stages", "refreshes", "blocks", "row_builds", "wide_products", "held_entries", "ascent_steps", "settles")
    work = dict.fromkeys(keys, 0)
    refresh, penalized, lapsed = clique_solver._refresh, clique_solver._penalized, clique_solver._lapsed
    product, settle = clique_solver._Penalized.__rmatmul__, clique_solver._settle
    working_set, ascend = clique_solver._working_set, clique_solver._ascend
    held = [0]  # entries of the held columns Md[C, S]

    def counting_ascend(*args):
        work["stages"] += 1
        return ascend(*args)

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
        work["held_entries"] += held[0]
        work["ascent_steps"] += 1
        return lapsed(v, ref, radius)

    def counting_settle(block, uC):
        work["settles"] += 1
        return settle(block, uC)

    monkeypatch.setattr(clique_solver, "_ascend", counting_ascend)
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
    # builds; the norms carried across stages the refreshes; the stage
    # settle the ascent steps.  Removing any of them fails here.  Every
    # refresh is a build.  The first build after all of Md has no norms and
    # holds no column off C, so its radius is small (0.015 and 0.016) and
    # the next step leaves it; the rebuild at that |C| screens by the norms
    # the first build computed.  With the columns screened by that first
    # pass and read in a second one instead, the pairs took 12 refreshes
    # each, 30 and 36 row builds and 101,557 and 197,458 held entries, so a
    # return to it fails on scene-m548's row builds.  Each
    # step reads all of Md[C, S] in one product, so the held entries bound
    # the screened set's size.  The settle ends a stage on the exact
    # eigenvector, and the solve stops right after such a stage once W
    # holds no non-edge.  Stage 0 starts on all of Md, builds its first
    # block once |W| <= m/3 and does not double its steps before that.
    # The first penalty is theta/32, theta the start vector's Ritz value
    # (36.0 and 47.6 on these pairs).  From the absolute 0.25 the pairs took
    # 11 and 12 stages, 14 refreshes, 40 and 62 row builds, 4 wide
    # products, 336k and 781k held entries, 80 and 79 steps and 13 settles
    # each; so a return to it fails here on every count.  The older figures, all from
    # 0.25: without the settle 201 and 304 steps; with S uncapped 572k and
    # 1544k held entries; waiting for a stage that moves nothing one more
    # refresh, block and two row builds on each pair; blocks from m/2 and
    # doubling on all of Md three more refreshes, 32 row builds and 222k
    # held entries on scene-m548, and one build, 11 row builds and 220k
    # held entries on scene-m896.
    RECORDED = {
        "scene-m548": dict(
            stages=8, refreshes=12, blocks=12, row_builds=27, wide_products=2, held_entries=86723, ascent_steps=54,
            settles=9,
        ),
        "scene-m896": dict(
            stages=8, refreshes=13, blocks=13, row_builds=36, wide_products=2, held_entries=183460, ascent_steps=65,
            settles=9,
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
            with monkeypatch.context() as patch:  # the same first penalty: only the start vector differs
                patch.setattr(clique_solver, "_perron_vector", lambda M: (fixed_power_init(M), _perron_vector(M)[1]))
                ref = solve_densest(M, rounding=rounding)
            assert sel.indices == ref.indices, name
            assert sel.objective == ref.objective, name

    def test_nonnegative_unit_and_close_to_the_power_method(self):
        for name, M in parity_instances():
            u, theta = _perron_vector(M)
            assert u.min() >= 0.0, name
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-15, name
            assert theta >= 1.0 and abs(theta - u @ M @ u) <= 1e-9 * theta, name  # the first penalty's scale
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
            u = _perron_vector(counted)[0]
            assert counter.calls == steps, name
            assert np.max(np.abs(u - x)) <= 1e-10, name
            stops.append(steps)
        # Stops an odd number of steps past _RITZ_FIRST, at m < 512 too.
        assert sum((steps - _RITZ_FIRST) % 2 for steps in stops[:40] if steps > _RITZ_FIRST) > 5

    def test_single_candidate(self):
        counted, counter = counted_matvecs(np.ones((1, 1)))
        assert np.array_equal(_perron_vector(counted)[0], [1.0])
        assert counter.calls == 1

    def test_identity_stops_at_once(self):
        counted, counter = counted_matvecs(np.eye(7))
        assert np.allclose(_perron_vector(counted)[0], 1.0 / np.sqrt(7), rtol=0.0, atol=1e-15)
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
        u = _perron_vector(counted)[0]
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
        for _, M in [*scene_pair_affinities(), ("scene-m1002", affinity_near_1000())]:
            solve_densest(M)
        assert len(blocks) >= 20  # 18 and 11
        for A, q in blocks:
            steps, x = reference_lanczos_stop(A, q)
            counted, counter = counted_matvecs(A)
            w, _, passed = clique_solver._lanczos(counted, q)
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


def best_move_density(M, edges, S):
    """The largest density, summed afresh, of a feasible set one add or one
    drop away from the feasible set S (asserted feasible)."""
    assert edges[np.ix_(S, S)].all()
    feasible = edges[:, S].all(axis=1)
    feasible[S] = False
    moves = [S + [int(v)] for v in np.flatnonzero(feasible)]
    moves += [[s for s in S if s != v] for v in S] if len(S) > 1 else []
    return max((reference_density(M, move) for move in moves), default=-np.inf)


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
            ref, tied = reference_round(sel.u, _perron_vector(M)[0], M, edges, rounding)
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
        assert [clique_solver._best_ranked(a, rank) for a in A] == [2, 3, 3, 3]
        assert [clique_solver._best_ranked(a, rank[::-1].copy()) for a in A] == [1, 0, 3, 0]

    def test_every_start_climbs_as_the_reference(self, instances):
        # Each of the 17 starts climbs to the reference loop's end from that
        # start, not only the winning one.  Where the reference met a near
        # tie, the other branch can end at another local optimum, less dense
        # (quantized-2 has one): an end that differs need only be feasible
        # and a local optimum.
        for name, M in instances:
            u = solve_densest(M).u
            edges = binarize_constraints(M)
            order = np.lexsort((np.arange(u.shape[0]), -_perron_vector(M)[0], -u))
            rank, bits = np.argsort(order), clique_solver._edge_bits(M)
            starts = [reference_round_greedy(order, M, edges, None), *([int(v)] for v in order[:16])]
            for start in starts:
                density, indices = clique_solver._climb(start, rank, M, bits)
                ref_density, ref, tied = reference_climb(start, M, edges, order)
                assert density == pytest.approx(reference_density(M, indices), rel=0, abs=1e-12), (name, start)
                if indices != ref and tied:
                    assert best_move_density(M, edges, list(indices)) <= density + 1e-12, (name, start)
                    continue
                assert indices == ref, (name, start)

    def test_greedy_density_ends_at_a_local_optimum(self, instances):
        # Feasible, and no single add or drop raises the density, summed
        # afresh, by more than 1e-12.
        for name, M in instances:
            S = list(solve_densest(M).indices)
            assert best_move_density(M, binarize_constraints(M), S) <= reference_density(M, S) + 1e-12, name
