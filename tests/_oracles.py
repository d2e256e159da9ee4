"""Independent reference implementations used only to check the library.

These deliberately avoid the library's own code paths: the Gini oracle is
the literal pairwise double sum, and the greedy oracle re-scans every
possible move from scratch on each iteration instead of walking a
presorted move list. knn_full_sort, greedy_move_list and random_per_ell
are the exception: the vectorized KNN as it was before neighbour selection
used partial selection, the greedy walk over one fully sorted move list as
it was before the heap walk, and the Random draw of one l from a given
order as it was before one blocked pass served the whole l grid, kept as
written so the rewrites can be held to them exactly at sizes the re-scan
oracles cannot reach. graph_from_pairs and
candidate_scores build and read score graphs the way the tests state them,
as per-user (item, score) pairs, and dense_ratings lays a dataset's ratings
out as a matrix.
"""

import numpy as np

from fairrec import InvalidInputError, ScoreGraph


def dense_ratings(dataset):
    """Dense (ratings, observed mask); every rating is >= 1, so a cell is rated exactly when nonzero."""
    values = np.zeros((dataset.n_users, dataset.n_items))
    values[dataset.users, dataset.items] = dataset.ratings
    return values, values != 0


def graph_from_pairs(pairs_per_user, n_items: int) -> ScoreGraph:
    """Build from unordered (item, score) pairs; order of pairs is irrelevant."""
    matrix = np.full((len(pairs_per_user), n_items), np.nan)
    for u, pairs in enumerate(pairs_per_user):
        ids = np.asarray([p[0] for p in pairs], dtype=np.int64)
        if np.any((ids < 0) | (ids >= n_items)):
            raise InvalidInputError(f"user {u}: item id outside [0, {n_items})")
        matrix[u, ids] = [p[1] for p in pairs]
    if np.count_nonzero(~np.isnan(matrix)) < sum(map(len, pairs_per_user)):
        raise InvalidInputError("duplicate item within one user's pairs, or a NaN score")
    return ScoreGraph(matrix, np.arange(len(matrix)))


def candidate_scores(graph: ScoreGraph, u: int):
    """User u's candidate ids, ascending, and their scores, aligned."""
    items = np.flatnonzero(~np.isnan(graph.matrix[u]))
    return items, graph.matrix[u, items]


def gini_pairwise(values) -> float:
    """Mean absolute difference over ordered pairs / (2 n sum)."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    return float(np.abs(np.subtract.outer(x, x)).sum() / (2 * n * x.sum()))


def gini_pairwise_loops(values) -> float:
    """Same double sum, written with plain loops for tiny inputs."""
    n = len(values)
    total = sum(values)
    diffs = sum(abs(a - b) for a in values for b in values)
    return diffs / (2 * n * total)


def greedy_rescan(graph: ScoreGraph, base_lists, k: int, theta: int, threshold: float):
    """Reference greedy: full re-scan of all feasible moves per iteration.

    Returns (lists ordered by score desc then item asc, achieved increase).
    """
    lists = [list(row) for row in np.asarray(base_lists).tolist()]
    score_of = []
    for u in range(graph.n_users):
        items, scores = candidate_scores(graph, u)
        score_of.append(dict(zip(items.tolist(), scores.tolist())))
    counts: dict[int, int] = {}
    for row in lists:
        for item in row:
            counts[item] = counts.get(item, 0) + 1

    achieved = 0
    while achieved < theta:
        moves = []
        for u in range(graph.n_users):
            items, scores = candidate_scores(graph, u)
            for item, score in zip(items.tolist(), scores.tolist()):
                if counts.get(item, 0) == 0 and score >= threshold:
                    moves.append((-score, item, u))
        moves.sort()
        applied = False
        for _, item, u in moves:
            victim_pos = None
            victim_key = None
            for pos, it in enumerate(lists[u]):
                if counts[it] >= 2:
                    key = (score_of[u][it], -it)
                    if victim_key is None or key < victim_key:
                        victim_key = key
                        victim_pos = pos
            if victim_pos is None:
                continue
            counts[lists[u][victim_pos]] -= 1
            counts[item] = 1
            lists[u][victim_pos] = item
            achieved += 1
            applied = True
            break
        if not applied:
            break

    ordered = []
    for u, row in enumerate(lists):
        row_sorted = sorted(row, key=lambda it: (-score_of[u][it], it))
        ordered.append(row_sorted)
    return ordered, achieved


def greedy_move_list(graph: ScoreGraph, base_lists, k: int, theta: int, threshold: float):
    """Reference greedy: one sorted list of every eligible move, walked once.

    greedy_rerank's body before the heap walk, kept as written: every
    (user, item) move with an unpooled item scoring at least threshold,
    lexsorted by (-score, item, user), then walked in Python, skipping moves
    whose item is pooled or whose user has no victim. Returns (lists ordered
    by score desc then item asc, as an array, achieved increase).
    """
    base_lists = np.asarray(base_lists)
    current_scores = np.take_along_axis(graph.matrix, base_lists, axis=1).tolist()
    counts = np.bincount(base_lists.ravel(), minlength=graph.n_items)

    move_users, move_items = np.nonzero((graph.matrix >= threshold) & (counts == 0))
    move_scores = graph.matrix[move_users, move_items]
    order = np.lexsort((move_users, move_items, -move_scores))

    current = base_lists.tolist()
    counts_list = counts.tolist()
    walk_items = move_items[order].tolist()
    walk_users = move_users[order].tolist()
    walk_scores = move_scores[order].tolist()

    achieved = 0
    for item, user, score in zip(walk_items, walk_users, walk_scores):
        if achieved >= theta:
            break
        if counts_list[item] > 0:
            continue
        # victim: lowest score, breaking ties toward the last-ranked (higher id)
        victim_pos = -1
        victim_key: tuple[float, int] | None = None
        row = current[user]
        row_scores = current_scores[user]
        for pos in range(k):
            if counts_list[row[pos]] < 2:
                continue
            key = (row_scores[pos], -row[pos])
            if victim_key is None or key < victim_key:
                victim_key = key
                victim_pos = pos
        if victim_pos < 0:
            continue
        counts_list[row[victim_pos]] -= 1
        counts_list[item] = 1
        row[victim_pos] = item
        row_scores[victim_pos] = score
        achieved += 1

    items, scores = np.asarray(current, dtype=np.int64), np.asarray(current_scores)
    lists = np.take_along_axis(items, np.lexsort((items, -scores)), axis=1)
    return lists, achieved


def random_per_ell(graph: ScoreGraph, ranked, ell: int, seed: int, k: int):
    """Reference Random draw for one l: k of each user's top-l items, gathered from a given order.

    random_rerank's body before one blocked pass served the whole l grid,
    kept as written: ``ranked`` is an order to depth >= min(l, n_items),
    such as a full stable row-wise sort of ``-graph.matrix``, and user u's
    k rank positions come from a generator built afresh from (seed, u).
    """
    depth = min(ell, graph.n_items)  # in Python: an l beyond int64 means every candidate
    ranks = np.empty((graph.n_users, k), dtype=np.int64)
    for u, limit in enumerate(np.minimum(graph.n_candidates, depth).tolist()):
        ranks[u] = np.random.default_rng([seed, u]).choice(limit, size=k, replace=False)
    ranks.sort(axis=1)
    return np.take_along_axis(ranked, ranks, axis=1)


def knn_rescan(dataset, candidates, n_neighbors: int, min_overlap: int):
    """Reference user-KNN: plain loops, one (user, candidate) pair at a time.

    For each pair, raters of the item with at least min_overlap co-rated
    items are ranked by similarity (ties: ascending user id); the top
    n_neighbors contribute deviation weighted by similarity over summed
    absolute similarity. No usable rater or zero mass falls back to the
    user's mean. Returns a dense prediction dict keyed by (user, item).
    """
    n = dataset.n_users
    ratings = [
        dict(zip(dataset.items[dataset.users == u].tolist(),
                 dataset.ratings[dataset.users == u].tolist()))
        for u in range(n)
    ]
    means = [sum(r.values()) / len(r) for r in ratings]

    def centered(u):
        return {i: v - means[u] for i, v in ratings[u].items()}

    def similarity(u, v):
        cu, cv = centered(u), centered(v)
        dot = sum(cu[i] * cv[i] for i in cu if i in cv)
        nu = sum(x * x for x in cu.values()) ** 0.5
        nv = sum(x * x for x in cv.values()) ** 0.5
        if nu == 0 or nv == 0:
            return 0.0
        return dot / (nu * nv)

    def co_rated(u, v):
        return len(set(ratings[u]) & set(ratings[v]))

    predictions = {}
    for u in range(n):
        for i in np.flatnonzero(candidates[u]).tolist():
            eligible = [
                v for v in range(n)
                if i in ratings[v] and co_rated(u, v) >= min_overlap
            ]
            eligible.sort(key=lambda v: (-similarity(u, v), v))
            chosen = eligible[:n_neighbors]
            den = sum(abs(similarity(u, v)) for v in chosen)
            if den > 0:
                num = sum(similarity(u, v) * (ratings[v][i] - means[v]) for v in chosen)
                value = means[u] + num / den
            else:
                value = means[u]
            predictions[(u, i)] = min(5.0, max(1.0, value))
    return predictions


def knn_full_sort(dataset, params):
    """Reference user-KNN matrix: one full stable argsort of the raters per item.

    The vectorized formulation predict_knn used before neighbour selection
    moved to a per-user rank matrix, kept as written; returns the clamped
    (n_users, n_items) matrix, NaN for rated items, to compare bit for bit.
    """
    n, m = dataset.n_users, dataset.n_items
    rated_values, observed = dense_ratings(dataset)
    counts = observed.sum(axis=1)
    means = rated_values.sum(axis=1) / counts

    deviations = np.where(observed, rated_values - means[:, None], 0.0)
    norms = np.sqrt((deviations**2).sum(axis=1))
    safe_norms = np.where(norms > 0, norms, 1.0)
    sims = (deviations @ deviations.T) / np.outer(safe_norms, safe_norms)

    observed_f = observed.astype(np.float64)
    overlap = observed_f @ observed_f.T
    valid = overlap >= params.min_overlap
    usable_sims = np.where(valid, sims, 0.0)
    # invalid pairs must rank below every valid similarity, including -1
    rank_keys = np.where(valid, sims, -2.0)

    by_item = np.lexsort((dataset.users, dataset.items))
    item_bounds = np.searchsorted(dataset.items[by_item], np.arange(m + 1))

    predictions = np.empty((n, m))
    nn = params.n_neighbors
    for i in range(m):
        raters = dataset.users[by_item[item_bounds[i] : item_bounds[i + 1]]]
        devs = deviations[raters, i]
        if raters.size <= nn:
            sim_block = usable_sims[:, raters]
            numer = sim_block @ devs
            denom = np.abs(sim_block).sum(axis=1)
        else:
            order = np.argsort(-rank_keys[:, raters], axis=1, kind="stable")[:, :nn]
            sim_sel = np.take_along_axis(usable_sims[:, raters], order, axis=1)
            numer = (sim_sel * devs[order]).sum(axis=1)
            denom = np.abs(sim_sel).sum(axis=1)
        safe = np.where(denom > 0, denom, 1.0)
        predictions[:, i] = np.where(denom > 0, means + numer / safe, means)

    return ScoreGraph.from_matrix(predictions, dataset).matrix


SCORE_CHOICES = (1.0, 2.0, 3.5, 4.0, 5.0)


def enumerate_small_instances():
    """Deterministic family of tiny score graphs rich in score ties.

    Yields (graph, k) over every shape with <= 4 users, <= 6 items, k <= 2,
    with three seeded score draws per shape and varying candidate sets.
    """
    for n_users in range(1, 5):
        for n_items in range(2, 7):
            for k in (1, 2):
                if n_items < k:
                    continue
                for draw in range(3):
                    rng = np.random.default_rng([n_users, n_items, k, draw])
                    pairs_per_user = []
                    for _ in range(n_users):
                        size = int(rng.integers(k, n_items + 1))
                        items = rng.choice(n_items, size=size, replace=False)
                        pairs_per_user.append(
                            [(int(i), float(rng.choice(SCORE_CHOICES))) for i in items]
                        )
                    yield graph_from_pairs(pairs_per_user, n_items), k
