import numpy as np
import pytest

from graffassoc import (
    ConsistencyParams,
    DistanceFn,
    PairConfig,
    SceneConfig,
    Selection,
    SolverParams,
    binarize_constraints,
    brute_force_densest,
    build_affinity,
    generate_scene,
    make_loop_pair,
    solve_densest,
)
from graffassoc import clique_solver
from graffassoc.clique_solver import _POWER_ITERATIONS, ROUNDING_RULES, _binary_density, _power_init, _round


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


def block_diag_ones(sizes):
    m = sum(sizes)
    A = np.zeros((m, m))
    start = 0
    for s in sizes:
        A[start : start + s, start : start + s] = 1.0
        start += s
    return A


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

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        M = random_gated_matrix(rng, 10)
        sel = solve_densest(M)
        perm = rng.permutation(10)
        P = np.eye(10)[perm]
        M2 = P @ M @ P.T
        sel2 = solve_densest(M2)
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
        sel = solve_densest(M, SolverParams(rounding="mass_capped"))
        assert sel.indices == tuple(block)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            SolverParams(max_iterations=0)
        with pytest.raises(ValueError):
            SolverParams(penalty_growth=1.0)
        with pytest.raises(ValueError):
            SolverParams(rounding="magic")

    @pytest.mark.parametrize(
        "name, message",
        [
            ("max_iterations", "max_iterations must be positive"),
            ("tol", "tol must be positive"),
            ("penalty_growth", "penalty_growth must exceed 1"),
            ("initial_penalty", "initial_penalty must be positive"),
        ],
    )
    def test_nan_params_rejected(self, name, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SolverParams(**{name: float("nan")})

    def test_selection_type(self):
        sel = solve_densest(np.eye(3))
        assert isinstance(sel, Selection)
        assert sel.u.shape == (3,)


# Reference relaxation: every stage ascends on the full penalized matrix
# M - penalty * violations, up to penalty m + 1.  `early_exit` adds the
# solver's exit rule on top of the same dense step.
def dense_ascend(Md, u, params):
    g = Md @ u
    f = float(u @ g)
    alpha = 1.0 / max(1.0, abs(f))
    moved = False
    for _ in range(params.max_iterations):
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
        if delta < params.tol:
            break
    return u, g, moved


def dense_relaxation(M, params=SolverParams(), early_exit=False):
    m = M.shape[0]
    edges = binarize_constraints(M)
    violations = (~edges).astype(float)
    u = _power_init(M, params.tol)
    penalty = params.initial_penalty
    stages = 0
    while penalty <= m + 1.0:
        u, g, moved = dense_ascend(M - penalty * violations, u, params)
        stages += 1
        W = (u > 0.0) | (g > 0.0)
        if early_exit and not moved and edges[np.ix_(W, W)].all():
            break
        penalty *= params.penalty_growth
    return u, stages


def reference_solve(M, params):
    u, _ = dense_relaxation(M, params)
    indices = _round(u, M, binarize_constraints(M), params.rounding)
    return Selection(indices, u, _binary_density(M, indices))


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
        params = SolverParams(rounding=rounding)
        for name, M in instances:
            sel = solve_densest(M, params)
            ref = reference_solve(M, params)
            assert sel.indices == ref.indices, name
            assert sel.objective == ref.objective, name
            assert np.max(np.abs(sel.u - ref.u)) <= U_TOLERANCE, name

    def test_solver_stops_at_a_fixed_point(self, instances, monkeypatch):
        # Every stage the solver skips would return its final u unchanged.
        params = SolverParams()
        stages = []
        ascend = clique_solver._ascend

        def recording(M, edges, penalty, u, g, params):
            stages.append((penalty, *ascend(M, edges, penalty, u, g, params)))
            return stages[-1][1:]

        monkeypatch.setattr(clique_solver, "_ascend", recording)
        skipped = 0
        for name, M in instances:
            stages.clear()
            solve_densest(M, params)
            penalty, u, g, _ = stages[-1]
            edges = binarize_constraints(M)
            while (penalty := penalty * params.penalty_growth) <= M.shape[0] + 1.0:
                u_next, g, moved = ascend(M, edges, penalty, u, g, params)
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


# The ascent before the certified refresh: the full-length gradient
# v @ Md[C, :] is recomputed after every accepted step.
def every_step_ascend(M, edges, penalty, u, g, params):
    m = u.shape[0]
    C, rows, block, _ = clique_solver._penalized_rows(M, edges, penalty, np.flatnonzero((u > 0.0) | (g is None or g > 0.0)))
    g = u[C] @ rows
    f = None
    moved = False
    for _ in range(params.max_iterations):
        W = np.flatnonzero((u > 0.0) | (g > 0.0))
        if 2 * W.size < C.size or not (np.take(C, np.searchsorted(C, W), mode="clip") == W).all():
            C, rows, block, _ = clique_solver._penalized_rows(M, edges, penalty, W)
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
        if float(np.linalg.norm(v - uC)) < params.tol:
            break
    return u, g, moved


def scene_pair_affinities():
    """Two scan-pair affinities at m = 500..1000, where most steps work on rows
    of a working set well below m."""
    for seed, (n_lines, n_planes, clutter) in [(0, (7, 22, 6)), (1, (8, 28, 8))]:
        scene = generate_scene(SceneConfig(n_lines=n_lines, n_planes=n_planes, seed=600 + seed))
        pair = make_loop_pair(scene, PairConfig(overlap=0.8, clutter=clutter, seed=700 + seed))
        M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), DistanceFn.GRAFF_SHIFTED)
        yield f"scene-m{M.shape[0]}", M


class TestCertifiedRefresh:
    @pytest.fixture(scope="class")
    def instances(self):
        return list(parity_instances()) + list(scene_pair_affinities())

    def test_matches_every_step_refresh(self, instances, monkeypatch):
        assert [500 <= M.shape[0] <= 1000 for _, M in instances[-2:]] == [True, True]
        params = SolverParams()
        for name, M in instances:
            sel = solve_densest(M, params)
            with monkeypatch.context() as patch:
                patch.setattr(clique_solver, "_ascend", every_step_ascend)
                ref = solve_densest(M, params)
            assert sel.indices == ref.indices, name
            assert sel.objective == ref.objective, name
            assert np.max(np.abs(sel.u - ref.u)) <= U_TOLERANCE, name

    def test_returned_gradient_is_exact(self, instances, monkeypatch):
        built = []
        stages = []
        penalized_rows, ascend = clique_solver._penalized_rows, clique_solver._ascend

        def recording_rows(M, edges, penalty, W):
            built[:] = [penalized_rows(M, edges, penalty, W)]
            return built[0]

        def recording_ascend(M, edges, penalty, u, g, params):
            u, g, moved = ascend(M, edges, penalty, u, g, params)
            stages.append((M, edges, penalty, built[0][0], u, g))
            return u, g, moved

        monkeypatch.setattr(clique_solver, "_penalized_rows", recording_rows)
        monkeypatch.setattr(clique_solver, "_ascend", recording_ascend)
        for name, M in instances:
            stages.clear()
            solve_densest(M)
            for M, edges, penalty, C, u, g in stages:
                rows = np.where(edges[C], M[C], -penalty)
                assert np.array_equal(g, u[C] @ rows), name

    def test_skipped_refreshes_are_sound(self, instances, monkeypatch):
        # At every step where the certificate holds, the refresh it skips
        # would have found g <= 0 everywhere off C.
        built = []
        decisions = []
        penalized_rows, certified = clique_solver._penalized_rows, clique_solver._certified

        def recording_rows(M, edges, penalty, W):
            built[:] = [penalized_rows(M, edges, penalty, W)]
            return built[0]

        def checking(v, ref, radius):
            holds = certified(v, ref, radius)
            decisions.append(holds)
            if holds:
                C, rows = built[0][:2]
                off = np.ones(rows.shape[1], dtype=bool)
                off[C] = False
                assert (v @ rows)[off].max() <= 0.0
            return holds

        monkeypatch.setattr(clique_solver, "_penalized_rows", recording_rows)
        monkeypatch.setattr(clique_solver, "_certified", checking)
        for _, M in instances:
            solve_densest(M)
        assert sum(decisions) >= 0.8 * len(decisions) > 1000


def fixed_power_init(M, tol):
    """The init before the tol stop: always _POWER_ITERATIONS steps."""
    u = np.full(M.shape[0], 1.0 / np.sqrt(M.shape[0]))
    for _ in range(_POWER_ITERATIONS):
        v = M @ u
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            break
        u = v / norm
    return u


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


def counted_matvecs(M):
    """M as an array that counts the products M @ x taken of it."""

    class Counting(np.ndarray):
        calls = 0

        def __matmul__(self, other):
            Counting.calls += 1
            return np.asarray(self) @ other

    return M.view(Counting), Counting


class TestConvergedPowerInit:
    @pytest.mark.parametrize("rounding", ROUNDING_RULES)
    def test_keeps_selections(self, rounding, monkeypatch):
        params = SolverParams(rounding=rounding)
        for name, M in [*parity_instances(), *criterion_4_planted()]:
            sel = solve_densest(M, params)
            with monkeypatch.context() as patch:
                patch.setattr(clique_solver, "_power_init", fixed_power_init)
                ref = solve_densest(M, params)
            assert sel.indices == ref.indices, name
            assert sel.objective == ref.objective, name

    def test_stops_early_on_scan_affinities(self):
        for name, M in parity_instances():
            if name.startswith("scan-"):
                counted, counter = counted_matvecs(M)
                _power_init(counted, SolverParams().tol)
                assert counter.calls < _POWER_ITERATIONS, name

    def test_single_candidate(self):
        counted, counter = counted_matvecs(np.ones((1, 1)))
        assert np.array_equal(_power_init(counted, 1e-8), [1.0])
        assert counter.calls == 1

    def test_identity_stops_at_once(self):
        counted, counter = counted_matvecs(np.eye(7))
        assert np.allclose(_power_init(counted, 1e-8), 1.0 / np.sqrt(7), rtol=0.0, atol=1e-15)
        assert counter.calls == 1

    def test_disconnected_blocks(self):
        # Two blocks of 3 and 5: the iterate drains from the smaller one at
        # rate 3/5, so the stop comes well before the cap, close to the
        # capped result, and the larger block is selected either way.
        M = block_diag_ones([3, 5])
        M[:3, :3] = 0.9
        np.fill_diagonal(M, 1.0)
        counted, counter = counted_matvecs(M)
        u = _power_init(counted, 1e-8)
        assert 10 < counter.calls < _POWER_ITERATIONS
        assert np.max(np.abs(u - fixed_power_init(M, 1e-8))) <= 1e-7
        assert solve_densest(M).indices == (3, 4, 5, 6, 7)
