import itertools
import threading

import numpy as np
import pytest

from subscan import (
    BudgetExceededError,
    DimensionMismatchError,
    Dims,
    Observation,
    SignalSpec,
    Support,
    ValidationError,
    canonical_support,
    critical_value,
    generate,
    generate_null,
    linear_statistic,
    log_lr,
    make_support,
    scan_brute_force,
    scan_exact,
    scan_heuristic,
    vector_select,
)
from subscan import selector
from subscan.selector import _climb, _incumbent, _top_sums, top_indices
from subscan.streams import gaussian_stream


def noise_obs(N, M, seed, n=1, m=1):
    return Observation(gaussian_stream(seed).standard_normal((N, M)), Dims(N, M, n, m))


def test_planted_dominant_signal_recovered():
    d = Dims(8, 8, 2, 2)
    s = make_support(d, [3, 6], [1, 4])
    for seed in (0, 1, 2, 3, 4):
        obs = generate(d, s, SignalSpec(100.0), seed)
        assert scan_exact(obs, 2, 2).support == s


def test_brute_force_golden_2x2():
    obs = Observation(np.array([[1.0, 0.0], [0.0, 2.0]]), Dims(2, 2, 1, 1))
    res = scan_brute_force(obs, 1, 1)
    assert res.support.rows == (1,) and res.support.cols == (1,)
    assert res.objective == 2.0


def test_tie_break_all_equal_matrix():
    obs = Observation(np.ones((5, 5)), Dims(5, 5, 2, 2))
    for scan in (scan_exact, scan_brute_force):
        res = scan(obs, 2, 2)
        assert res.support.rows == (0, 1)
        assert res.support.cols == (0, 1)


def test_tie_break_when_columns_are_enumerated():
    # two maximizers; the contract prefers the smaller row set even though the
    # enumeration runs over column subsets here
    data = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    obs = Observation(data, Dims(3, 2, 2, 1))
    res = scan_exact(obs, 2, 1)
    assert res.support.rows == (0, 1)
    assert res.support.cols == (1,)
    assert res.objective == 2.0
    brute = scan_brute_force(obs, 2, 1)
    assert brute.support == res.support


def test_matches_brute_force_under_heavy_ties():
    # binary-valued matrices make equal objectives common on both axes, so
    # this drills the full tie-break order, including the column-enumeration
    # path where rows must still win ties
    rng = gaussian_stream(4242)
    for _ in range(300):
        N = int(rng.integers(2, 6))
        M = int(rng.integers(2, 6))
        n = int(rng.integers(1, N + 1))
        m = int(rng.integers(1, M + 1))
        data = rng.integers(0, 2, size=(N, M)).astype(float)
        obs = Observation(data, Dims(N, M, n, m))
        exact = scan_exact(obs, n, m)
        brute = scan_brute_force(obs, n, m)
        assert exact.support == brute.support, (data, n, m)
        assert exact.objective == brute.objective


def _integer_oracle(Y, n, m):
    """(objective, rows, cols) of the lexicographically smallest maximiser,
    from every row set at once in integer arithmetic."""
    Y = Y.astype(np.int16)
    row_sets = np.array(list(itertools.combinations(range(Y.shape[0]), n)))
    colsums = sum(Y[row_sets[:, i]] for i in range(n))
    objs = np.sort(colsums, axis=1)[:, Y.shape[1] - m:].sum(axis=1)
    best = int(np.argmax(objs))  # combinations come in lex order
    s = colsums[best]
    cols = sorted(sorted(range(Y.shape[1]), key=lambda j: (-s[j], j))[:m])
    return int(objs[best]), tuple(row_sets[best].tolist()), tuple(cols)


def _two_blocks(shape, first, second):
    Y = np.zeros(shape)
    for rows, cols in (first, second):
        Y[np.ix_(rows, cols)] = 1.0
    return Y


# the 25,000th and 25,001st of the 27,405 subsets of 4 out of 30, in lex
# order, where an earlier exact scan split its enumeration into two chunks
_LAST, _FIRST = itertools.islice(itertools.combinations(range(30), 4), 24_999, 25_001)


def _two_chunk_ties():
    """{0,1} matrices with dense ties, with (n, m), checked against the integer
    oracle.  The first twelve enumerate the 27,405 subsets of 4 rows of 30x40
    or (transposed) 4 columns of 40x30."""
    low, high = (0, 1, 2, 3), (10, 11, 12, 13)
    cases = [
        # one maximiser per chunk: the rows tie-break keeps the first chunk's
        ("rows-tie", _two_blocks((30, 40), (_LAST, range(4)), (_FIRST, range(4, 8)))),
        # the only maximiser is in the second chunk
        ("rows-second", _two_blocks((30, 40), (_LAST, range(3)), (_FIRST, range(4, 8)))),
        # columns are enumerated, yet the second chunk's smaller rows win the tie
        ("cols-tie-second", _two_blocks((40, 30), (high, _LAST), (low, _FIRST))),
        ("cols-tie-first", _two_blocks((40, 30), (low, _LAST), (high, _FIRST))),
    ]
    rng = gaussian_stream(4343)
    for density in (0.5, 0.25, 0.1):
        for shape in ((30, 40), (40, 30)):
            cases.append((f"{shape[0]}x{shape[1]}-p{density}", (rng.random(shape) < density) * 1.0))
    # sparse before index 12, which every second-chunk subset starts at, so
    # the many tied maximisers all sit in the second chunk
    late = np.where(np.arange(30) < 12, 0.05, 0.5)
    cases.append(("rows-late", (rng.random((30, 40)) < late[:, None]) * 1.0))
    cases.append(("cols-late", (rng.random((40, 30)) < late[None, :]) * 1.0))
    # nothing can be pruned: every subset ties
    cases += [("all-ones", np.ones((30, 40))), ("all-ones-transposed", np.ones((40, 30))),
              ("all-zeros", np.zeros((30, 40)))]
    params = [pytest.param(Y, 4, 4, id=name) for name, Y in cases]
    # the whole matrix (the top-k axis takes every index), and n = 1 or m = 1
    # with either axis enumerated
    rng = gaussian_stream(4747)
    for N, M, n, m in [(6, 5, 6, 5), (12, 7, 1, 3), (7, 12, 3, 1), (30, 6, 1, 2), (6, 30, 2, 1), (9, 9, 1, 9)]:
        params.append(pytest.param((rng.random((N, M)) < 0.5) * 1.0, n, m, id=f"{N}x{M}-n{n}-m{m}"))
    return params


@pytest.mark.parametrize("Y, n, m", _two_chunk_ties())
def test_exact_ties_across_chunk_boundaries(Y, n, m):
    N, M = Y.shape
    objective, rows, cols = _integer_oracle(Y, n, m)
    res = scan_exact(Observation(Y, Dims(N, M, n, m)), n, m)
    assert (res.support.rows, res.support.cols, res.objective) == (rows, cols, objective)


@pytest.mark.parametrize("transposed", [False, True])
def test_lex_earlier_maximiser_ties_incumbent(transposed):
    import subscan.selector as sel

    Y = _two_blocks((30, 40), ((10, 11, 12, 13), range(4)), ((20, 21, 22, 23), range(4, 8)))
    Y[np.ix_((0, 1, 2, 3), range(30, 34))] = 1.0  # a lex-earlier block with the same sum
    Y = Y.T.copy() if transposed else Y
    objective, rows, cols = _integer_oracle(Y, 4, 4)
    assert sel._incumbent(Y.T if transposed else Y, 4, 4) == objective
    res = scan_exact(Observation(Y, Dims(*Y.shape, 4, 4)), 4, 4)
    assert (res.support.rows, res.support.cols, res.objective) == (rows, cols, objective)


@pytest.mark.parametrize("transposed", [False, True])
def test_maximiser_in_the_rows_searched_last(transposed):
    # rows 0-3 hold three ones each, in columns 0-2, and every other row four
    # ones, so rows 0-3 have the smallest top-4 sums and are searched last.
    # Rows 4 and 5 move two of theirs into columns 0-2: nine row sets tie at
    # the maximum, some sharing a search block with rows 0-3, the lex-smallest
    Y = np.zeros((30, 40))
    Y[:4, :3] = 1.0
    for r in range(4, 30):  # no column from 3 on gets more than three ones
        Y[r, 3 + (4 * (r - 4) + np.arange(4)) % 37] = 1.0
    Y[4, 5:7], Y[4, :2], Y[5, 9:11], Y[5, 1:3] = 0.0, 1.0, 0.0, 1.0
    tops = _top_sums(Y.copy(), 4)
    assert tops[:4].max() < tops[4:].min()
    Y = Y.T.copy() if transposed else Y  # 40x30 enumerates column sets
    objective, rows, cols = _integer_oracle(Y, 4, 4)
    assert (cols if transposed else rows) == (0, 1, 2, 3)
    res = scan_exact(Observation(Y, Dims(*Y.shape, 4, 4)), 4, 4)
    assert (res.support.rows, res.support.cols, res.objective) == (rows, cols, objective)


def test_incumbent_below_the_optimum_only_sets_a_floor():
    # the rows are already strongest first, so the scan's relabelling is the
    # identity and its incumbent climbs from rows 0-5
    Y = gaussian_stream(24).standard_normal((12, 12))
    Y = Y[np.argsort(-np.sort(Y, axis=1)[:, -3:].sum(axis=1))]
    assert np.all(np.diff(_top_sums(Y.copy(), 3)) <= 0)
    obs = Observation(Y, Dims(12, 12, 3, 3))
    exact, brute = scan_exact(obs, 3, 3), scan_brute_force(obs, 3, 3)
    assert _incumbent(Y, 3, 3) < exact.objective
    assert (exact.support, exact.objective) == (brute.support, brute.objective)


def _rounding_ties():
    """Matrices whose maximiser ties another support or the pruning bound
    only up to float rounding, with (n, m)."""
    # (0.1 + 0.2) + 0.3 is one ulp above 0.1 + (0.2 + 0.3): a bound that
    # adds the rows in another order can come out below the objective of
    # rows (0, 1, 2), the only maximiser
    one_column = np.zeros((5, 12))  # C(5, 3) < C(12, 1): row sets are enumerated
    one_column[:3, 2] = (0.1, 0.2, 0.3)
    # the search adds rows strongest first, 0.3 + 0.2 + 0.1 = 0.6, one ulp
    # below the index order's sum: a runner-up of 0.1 + 0.2 + 0.3 in one row
    # ties the maximiser in index order only, and loses the tie-break
    index_tie = one_column.copy()
    index_tie[3, 5] = 0.1 + 0.2 + 0.3
    # a lex-smaller runner-up of 0.6 ties the maximiser, rows (2, 3, 4), in
    # the search's order only
    search_tie = np.zeros((5, 12))
    search_tie[2:, 2] = (0.1, 0.2, 0.3)
    search_tie[0, 5] = 0.6
    cases = []
    for name, Y in [("bound-below-objective", one_column), ("runner-up-ties-in-index-order", index_tie),
                    ("runner-up-ties-strongest-first", search_tie)]:
        cases += [(name, Y, 3, 1), (f"{name}-transposed", Y.T.copy(), 1, 3)]
    rng = gaussian_stream(4545)
    for i in range(6):
        shape = (8, 9) if i % 2 else (9, 8)
        values = rng.choice([0.1, 0.2, 0.3, 0.7, -0.1], size=shape)
        n, m = (2, 3) if i < 3 else (3, 2)
        cases.append((f"tenths-{i}", values, n, m))
    # every block sums to a signed zero, so the tie-break alone decides
    zero_column = np.zeros((6, 8))
    zero_column[:, 0] = -0.0
    signed = [("negative-zero-column", zero_column, 2, 3)]
    signed += [(f"signed-zeros-{i}", rng.choice([0.0, -0.0], size=(7, 9)), 3, 2) for i in range(2)]
    for name, Y, n, m in signed:  # C(6, 2) < C(8, 3) and C(7, 3) < C(9, 2): rows are enumerated
        cases += [(name, Y, n, m), (f"{name}-transposed", Y.T.copy(), m, n)]
    for scale in (1e150, 1e-150):
        for i, (N, M, n, m) in enumerate([(10, 9, 3, 3), (9, 12, 2, 4), (14, 7, 4, 2)]):
            cases.append((f"gauss-{scale:g}-{i}", gaussian_stream(4646 + i).standard_normal((N, M)) * scale, n, m))
    return [pytest.param(Y, n, m, id=name) for name, Y, n, m in cases]


@pytest.mark.parametrize("Y, n, m", _rounding_ties())
def test_exact_matches_brute_force_under_rounding(Y, n, m):
    obs = Observation(Y, Dims(*Y.shape, n, m))
    exact, brute = scan_exact(obs, n, m), scan_brute_force(obs, n, m)
    assert (exact.support, exact.objective) == (brute.support, brute.objective)


def test_exact_success_survives_raised_means():
    # the least-favourable premise behind the risk curves: raising a planted
    # cell by d >= 0 changes sum_S Y - sum_P Y by -d * [cell not in S] <= 0,
    # so an exact success at mean a stays one when means >= a
    successes = 0
    for N, seed in itertools.product((20, 30), range(25)):
        d = Dims(N, N, 3, 3)
        rng = np.random.default_rng([N, seed])
        planted = make_support(d, rng.choice(N, 3, replace=False), rng.choice(N, 3, replace=False))
        a = rng.uniform(0.5, 1.3) * critical_value(d)
        raised = rng.random((3, 3)) < 0.5
        means = a + raised * rng.exponential(0.5, (3, 3))
        if scan_exact(generate(d, planted, SignalSpec(a), seed), 3, 3).support == planted:
            successes += 1
            obs = generate(d, planted, SignalSpec(a, means), seed)
            assert scan_exact(obs, 3, 3).support == planted
    assert successes >= 10  # enough successes for the check to bite


def test_exact_scan_survives_an_emptied_block():
    # one of 800 null and planted scans tried where the pre-filter drops every
    # child of a block; pinned to the result of the full enumeration this
    # branch and bound replaced
    res = scan_exact(generate_null(Dims(60, 60, 4, 4), 43), 4, 4)
    assert (res.support.rows, res.support.cols, res.objective) == (
        (2, 22, 49, 57), (8, 14, 40, 47), 27.88946476603337
    )


def test_exact_scan_starts_no_threads(monkeypatch):
    import threading

    import subscan.parallel as par

    def refuse(*args, **kwargs):
        raise AssertionError("a single exact scan fanned out")

    monkeypatch.setattr(par, "map_windowed", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    # every support ties, with rows and then columns enumerated
    ties = [Observation(np.ones((9, 9)), Dims(9, 9, 3, m)) for m in (3, 2)]
    for obs in [noise_obs(30, 40, 3, n=4, m=4), *ties]:  # 27,405 row sets, then the ties
        n, m = obs.dims.n, obs.dims.m
        serial = scan_exact(obs, n, m, workers=1)
        for workers in (2, 4):
            assert scan_exact(obs, n, m, workers=workers) == serial


def test_top_indices_matches_lexsort_reference():
    # largest first, ties to the smaller index, sorted; the reference is a lexsort
    rng = gaussian_stream(2024)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan])
    for _ in range(2000):
        size = int(rng.integers(1, 40))
        ints = rng.random() < 0.5
        x = rng.integers(-2, 3, size).astype(float) if ints else rng.choice(pool, size)
        k = int(rng.integers(0, size + 1))
        expected = np.sort(np.lexsort((np.arange(size), -x))[:k])
        assert top_indices(x, k).tolist() == expected.tolist(), (x, k)


def test_budget_guards():
    obs = noise_obs(20, 20, 1)
    with pytest.raises(BudgetExceededError, match="heuristic"):
        scan_exact(obs, 10, 10, budget=100)
    with pytest.raises(BudgetExceededError):
        scan_brute_force(obs, 10, 10)


def test_shape_mismatch_guard():
    obs = noise_obs(4, 4, 1)
    with pytest.raises(DimensionMismatchError):
        scan_exact(obs, 5, 2)
    with pytest.raises(DimensionMismatchError):
        scan_heuristic(obs, 2, 5)


# --- heuristic


def test_heuristic_more_restarts_never_hurt():
    obs = noise_obs(12, 12, 8)
    objectives = [scan_heuristic(obs, 3, 3, restarts=r, seed=42).objective for r in (1, 3, 10, 30)]
    for lo, hi in zip(objectives, objectives[1:]):
        assert hi >= lo


def test_heuristic_matches_exact_frequently():
    # regression bound: measured 100% agreement at these sizes pre-release
    hits = 0
    for seed in range(200):
        obs = noise_obs(8, 8, 9000 + seed)
        exact = scan_exact(obs, 2, 2)
        heur = scan_heuristic(obs, 2, 2, restarts=50, seed=9000 + seed)
        hits += heur.objective == exact.objective
    assert hits / 200 >= 0.95


def test_heuristic_single_restart_finds_dominant_signal():
    d = Dims(10, 10, 3, 3)
    s = make_support(d, [2, 5, 9], [0, 4, 7])
    obs = generate(d, s, SignalSpec(100.0), 3)
    res = scan_heuristic(obs, 3, 3, restarts=1, seed=12)
    assert res.support == s
    assert res.restarts_used == 1


def test_heuristic_ascent_is_strictly_increasing(monkeypatch):
    # capping the climb at k cycles gives every restart's objective after k
    # cycles: it rises strictly with each cycle a restart takes, then stays
    for seed in range(20):
        Y = gaussian_stream(800 + seed).standard_normal((15, 15))
        init = np.array([
            np.sort(gaussian_stream(900 + seed, (r,)).choice(15, size=4, replace=False))
            for r in range(6)
        ])
        monkeypatch.setattr(selector, "MAX_ALTERNATIONS", 1000)
        rows, cols, final_obj, final_cycles = _climb(Y, init, 4, 4)
        prev = None
        for k in range(int(final_cycles.max()) + 2):
            monkeypatch.setattr(selector, "MAX_ALTERNATIONS", k)
            _, _, obj, cycles = _climb(Y, init, 4, 4)
            assert np.array_equal(cycles, np.minimum(k, final_cycles))
            if prev is not None:
                moved = final_cycles >= k
                assert np.all(obj[moved] > prev[moved])
                assert np.array_equal(obj[~moved], prev[~moved])
            prev = obj
        assert np.array_equal(prev, final_obj)
        for r in range(len(init)):
            assert final_obj[r] == Y[np.ix_(rows[r], cols[r])].sum()


def _reference_heuristic(Y, n, m, restarts, seed, max_cycles=1000):
    # one restart at a time, each a loop of top_indices and np.ix_ sums
    best, best_cycles = None, 0
    for r in range(restarts):
        rows = np.sort(gaussian_stream(seed, (r,)).choice(Y.shape[0], size=n, replace=False))
        cols = top_indices(Y[rows].sum(axis=0), m)
        obj, cycles = Y[np.ix_(rows, cols)].sum(), 0
        for _ in range(max_cycles):
            rows_next = top_indices(Y[:, cols].sum(axis=1), n)
            cols_next = top_indices(Y[rows_next].sum(axis=0), m)
            obj_next = Y[np.ix_(rows_next, cols_next)].sum()
            if obj_next <= obj:
                break
            rows, cols, obj, cycles = rows_next, cols_next, obj_next, cycles + 1
        cand = (float(obj), tuple(rows.tolist()), tuple(cols.tolist()))
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1:] < best[1:]):
            best, best_cycles = cand, cycles
    return best, best_cycles


@pytest.mark.parametrize("N, M, n, m", [(12, 12, 3, 3), (30, 50, 3, 7), (40, 40, 9, 10), (20, 60, 2, 20)])
@pytest.mark.parametrize("kind", ["gauss", "integer", "binary"])
def test_heuristic_matches_one_restart_reference(N, M, n, m, kind, monkeypatch):
    for seed in range(8):
        Z = gaussian_stream(5000 + seed, (N, M)).standard_normal((N, M))
        Y = {"gauss": Z, "integer": np.round(2 * Z), "binary": (Z > 0.3).astype(float)}[kind]
        restarts, max_cycles = (1, 5, 20, 20)[seed % 4], (1000, 1, 2, 1000)[seed % 4]
        monkeypatch.setattr(selector, "MAX_ALTERNATIONS", max_cycles)
        res = scan_heuristic(Observation(Y, Dims(N, M, n, m)), n, m, restarts=restarts, seed=seed)
        (obj, rows, cols), cycles = _reference_heuristic(Y, n, m, restarts, seed, max_cycles)
        assert (res.objective, res.support.rows, res.support.cols, res.iterations) == (
            obj, rows, cols, cycles
        )


def _binary_noise(N, M, seed):
    return (gaussian_stream(seed).standard_normal((N, M)) > 0).astype(float)


def _planted_at_critical(N, M, n, m, seed):
    d = Dims(N, M, n, m)
    return generate(d, canonical_support(d), SignalSpec(critical_value(d)), seed).data


# (matrix, n, m, restarts, seed) -> (rows, cols, iterations, objective), as
# returned by the one-restart-at-a-time ascent this scan replaced
HEURISTIC_PINS = [
    (lambda: _planted_at_critical(60, 60, 6, 6, 101), 6, 6, 20, 7,
     (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), 2, 74.88008498567),
    (lambda: noise_obs(50, 50, 102).data, 5, 5, 10, 8,
     (11, 14, 19, 32, 39), (16, 31, 39, 40, 49), 3, 31.656239347747846),
    (lambda: noise_obs(30, 50, 103).data, 3, 7, 20, 9,
     (11, 12, 15), (13, 16, 17, 19, 39, 44, 45), 1, 29.627038176932764),
    (lambda: _binary_noise(12, 12, 104), 3, 3, 20, 10,
     (0, 2, 6), (1, 2, 11), 1, 9.0),
    # dense ties in rows longer than a sort's small-array cutoff
    (lambda: _binary_noise(40, 40, 106), 4, 4, 20, 12,
     (0, 2, 7, 32), (6, 10, 11, 17), 2, 16.0),
    (lambda: noise_obs(40, 40, 105).data, 4, 4, 1, 11,
     (4, 14, 15, 23), (7, 8, 13, 23), 4, 22.25105948784141),
]


@pytest.mark.parametrize(
    "make, n, m, restarts, seed, rows, cols, iterations, objective",
    HEURISTIC_PINS,
    ids=["60x60-planted", "50x50", "30x50-n3-m7", "12x12-binary", "40x40-binary", "restarts-1"],
)
def test_heuristic_pinned_results(make, n, m, restarts, seed, rows, cols, iterations, objective):
    Y = make()
    N, M = Y.shape
    res = scan_heuristic(Observation(Y, Dims(N, M, n, m)), n, m, restarts=restarts, seed=seed)
    assert (res.support.rows, res.support.cols, res.iterations, res.objective) == (
        rows, cols, iterations, objective
    )
    assert res.restarts_used == restarts


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 + 5])
def test_restart_rows_match_their_streams(seed):
    from subscan.selector import _restart_rows

    # the last call is memoised: alternating seeds must still give fresh
    # draws, and the shared array must be read-only
    for N, n in ((50, 5), (7, 7), (300, 2)):
        for s in (seed, seed + 1, seed):
            expected = [np.sort(gaussian_stream(s, (r,)).choice(N, size=n, replace=False)) for r in range(41)]
            rows = _restart_rows(N, n, 41, s)
            assert np.array_equal(rows, np.array(expected))
            assert not rows.flags.writeable


def test_restart_rows_are_kept_per_thread():
    from subscan.selector import _restart_rows

    # two fanned-out trials draw in turn; each thread's repeat call, the next
    # signal level of its trial, must still get its own trial's draw back
    both_drew = threading.Barrier(2, timeout=30)
    reused = {}

    def trial(seed):
        first = _restart_rows(50, 5, 8, seed)
        both_drew.wait()
        reused[seed] = _restart_rows(50, 5, 8, seed) is first

    threads = [threading.Thread(target=trial, args=(seed,)) for seed in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reused == {1: True, 2: True}


def test_heuristic_restart_guard():
    obs = noise_obs(5, 5, 1)
    with pytest.raises(ValidationError):
        scan_heuristic(obs, 2, 2, restarts=0)


# --- vector case


def test_vector_select_golden():
    assert vector_select([3.0, 1.0, 2.0], 2) == [0, 2]


def test_vector_select_constant_tie_break():
    assert vector_select([1.0, 1.0, 1.0, 1.0], 2) == [0, 1]


def test_vector_select_against_subset_enumeration():
    for seed in range(500):
        x = gaussian_stream(2000 + seed).standard_normal(8)
        best = max(itertools.combinations(range(8), 3), key=lambda c: x[list(c)].sum())
        assert vector_select(x, 3) == sorted(best)


def test_vector_select_guards():
    with pytest.raises(ValidationError):
        vector_select([1.0, 2.0], 3)
    with pytest.raises(ValidationError):
        vector_select(np.zeros((2, 2)), 1)


# --- likelihood ratio


def test_log_lr_zero_at_zero_signal():
    obs = noise_obs(6, 6, 3)
    s = make_support(Dims(6, 6, 2, 2), [0, 1], [2, 3])
    assert log_lr(obs, s, 0.0) == 0.0


def test_log_lr_noiseless_planted_value():
    d = Dims(5, 5, 2, 2)
    s = make_support(d, [1, 2], [3, 4])
    a = 1.7
    data = np.zeros((5, 5))
    data[np.ix_(s.rows, s.cols)] = a
    obs = Observation(data, d)
    assert log_lr(obs, s, a) == pytest.approx(-a * a * 4 / 2.0, rel=1e-12)


def test_log_lr_guards():
    obs = noise_obs(4, 4, 1)
    with pytest.raises(ValidationError):
        log_lr(obs, make_support(Dims(4, 4, 1, 1), [0], [0]), -1.0)
    with pytest.raises(DimensionMismatchError):
        log_lr(obs, make_support(Dims(9, 9, 2, 2), [7, 8], [0, 1]), 1.0)
    for a in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            log_lr(obs, make_support(Dims(4, 4, 1, 1), [0], [0]), a)
    for rows in ((3, -1), (1, 1), (0, 5)):
        with pytest.raises(DimensionMismatchError):
            log_lr(obs, Support(rows, (0, 1)), 1.0)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_scans_stay_finite_just_inside_the_bound(n, m):
    # max|entry| * N * M just below half the float64 range: every sum a scan
    # forms, and the exact scan's slack, stay finite
    big = np.nextafter(np.finfo(np.float64).max / 2 / 36, 0.0)
    Z = gaussian_stream(77).standard_normal((6, 6))
    for Y in (np.full((6, 6), big), big * (Z / np.abs(Z).max())):
        for data in (Y, -Y):
            obs = Observation(data, Dims(6, 6, n, m))
            results = [scan_exact(obs, n, m), scan_heuristic(obs, n, m, restarts=4),
                       scan_brute_force(obs, n, m)]
            assert all(np.isfinite(res.objective) for res in results)
            assert results[0].objective == results[2].objective
            assert np.isfinite(linear_statistic(obs))
