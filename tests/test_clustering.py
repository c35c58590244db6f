import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segkit.clustering import (
    Assignment,
    ClusteringConfig,
    ClusterModel,
    Lcg,
    PointSet,
    Weights,
    assign_points,
    edge_weights,
    init_centers,
    run_kmeans,
    segment_clustering,
    update_centers,
    weighted_sse,
)
from segkit.errors import PreconditionError, TooFewPoints
from segkit.raster import GradientMap, GrayImage

from fixture_builders import lcg_bytes, misclassified, noisy_half_image


def pts(values):
    return PointSet(np.array(values, dtype=np.float64))


def brute_force_two_cluster_sse(values, weights):
    """Exhaustive optimum over all 2-partitions, naive Python arithmetic."""
    n = len(values)
    best = None
    for mask in range(1, 2**n - 1):
        sides = [(mask >> i) & 1 for i in range(n)]
        sums = [0.0, 0.0]
        wsum = [0.0, 0.0]
        for i in range(n):
            sums[sides[i]] += weights[i] * values[i]
            wsum[sides[i]] += weights[i]
        if wsum[0] == 0 or wsum[1] == 0:
            continue
        centers = [sums[0] / wsum[0], sums[1] / wsum[1]]
        sse = 0.0
        for i in range(n):
            d = values[i] - centers[sides[i]]
            sse += weights[i] * d * d
        if best is None or sse < best:
            best = sse
    return best


class TestInitCenters:
    def test_quantile_formula(self):
        model = init_centers(pts([0, 1, 9, 10]), ClusteringConfig(k=2))
        assert model.centers.ravel().tolist() == [1.0, 10.0]

    def test_quantile_k_equals_n(self):
        model = init_centers(pts([3, 1, 7, 5]), ClusteringConfig(k=4))
        assert sorted(model.centers.ravel().tolist()) == [1.0, 3.0, 5.0, 7.0]

    def test_seeded_random_deterministic(self):
        config = ClusteringConfig(k=3, init="seeded-random", seed=42)
        points = pts(list(range(20)))
        a = init_centers(points, config)
        b = init_centers(points, config)
        assert np.array_equal(a.centers, b.centers)

    def test_seeded_random_distinct_indices(self):
        config = ClusteringConfig(k=5, init="seeded-random", seed=7)
        model = init_centers(pts(list(range(5))), config)
        assert sorted(model.centers.ravel().tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            init_centers(pts([1, 2]), ClusteringConfig(k=3))


class TestAssignPoints:
    def test_nearest_center(self):
        model = ClusterModel(np.array([[0.0], [10.0]]))
        a = assign_points(pts([4, 6]), model)
        assert a.member_of.tolist() == [0, 1]

    def test_tie_goes_to_lowest_index(self):
        model = ClusterModel(np.array([[0.0], [10.0]]))
        assert assign_points(pts([5]), model).member_of.tolist() == [0]

    def test_point_on_center(self):
        model = ClusterModel(np.array([[3.0], [8.0]]))
        assert assign_points(pts([8]), model).member_of.tolist() == [1]


class TestUpdateCenters:
    def test_unit_weight_mean(self):
        model = update_centers(
            pts([1, 3]), Assignment(np.array([0, 0])), Weights.unit(2), 1
        )
        assert model.centers.ravel().tolist() == [2.0]

    def test_weighted_mean(self):
        model = update_centers(
            pts([0, 4]), Assignment(np.array([0, 0])), Weights(np.array([3.0, 1.0])), 1
        )
        assert model.centers.ravel().tolist() == [1.0]

    def test_single_member(self):
        model = update_centers(
            pts([5, 9]), Assignment(np.array([0, 1])), Weights(np.array([0.3, 2.5])), 2
        )
        assert model.centers.ravel().tolist() == [5.0, 9.0]

    def test_empty_cluster_reseeded_at_farthest(self):
        # cluster 1 has no members; the farthest point from its own new
        # center is 100 (distance from mean 35 of cluster 0)
        model = update_centers(
            pts([0, 5, 100]), Assignment(np.array([0, 0, 0])), Weights.unit(3), 2
        )
        assert model.centers.ravel().tolist() == [35.0, 100.0]

    def test_two_empty_clusters_take_distinct_points(self):
        model = update_centers(
            pts([0, 10, 100]), Assignment(np.array([0, 0, 0])), Weights.unit(3), 3
        )
        centers = model.centers.ravel().tolist()
        # farthest point 100 seeds cluster 1, next-farthest 0 seeds cluster 2
        assert centers[1] == 100.0 and centers[2] == 0.0

    def test_zero_weight_cluster_treated_as_empty(self):
        model = update_centers(
            pts([0, 10, 50, 100]),
            Assignment(np.array([0, 0, 1, 0])),
            Weights(np.array([1.0, 1.0, 0.0, 1.0])),
            2,
        )
        # cluster 1's only member has weight 0 -> re-seed at the farthest
        # point from its own cluster's new center (100 from mean 110/3)
        assert model.centers.ravel().tolist() == [110.0 / 3.0, 100.0]

    def test_matches_naive_oracle_bitwise(self):
        rng = Lcg(314)
        for _ in range(100):
            n = 2 + rng.next_u32() % 40
            k = 1 + rng.next_u32() % 4
            d = 1 + rng.next_u32() % 3
            points = np.array(
                [(rng.next_u32() % 1000) / 7.0 for _ in range(n * d)]
            ).reshape(n, d)
            assignment = np.array(
                [i % k if i < k else rng.next_u32() % k for i in range(n)],
                dtype=np.int32,
            )
            weights = np.array([(1 + rng.next_u32() % 999) / 100.0 for _ in range(n)])
            model = update_centers(
                PointSet(points), Assignment(assignment), Weights(weights), k
            )
            expected = np.zeros((k, d))
            for j in range(k):
                num = [0.0] * d
                den = 0.0
                for i in range(n):
                    if assignment[i] == j:
                        for c in range(d):
                            num[c] += weights[i] * points[i, c]
                        den += weights[i]
                expected[j] = [v / den for v in num]
            assert np.array_equal(model.centers, expected)


class TestWeightedSse:
    def test_zero_when_points_equal_centers(self):
        model = ClusterModel(np.array([[1.0], [2.0]]))
        sse = weighted_sse(
            pts([1, 2]), model, Assignment(np.array([0, 1])), Weights.unit(2)
        )
        assert sse == 0.0

    def test_four_point_fixture(self):
        model = ClusterModel(np.array([[0.5], [9.5]]))
        sse = weighted_sse(
            pts([0, 1, 9, 10]),
            model,
            Assignment(np.array([0, 0, 1, 1])),
            Weights.unit(4),
        )
        assert sse == 1.0
        assert brute_force_two_cluster_sse([0, 1, 9, 10], [1, 1, 1, 1]) == 1.0

    def test_linear_in_weights(self):
        model = ClusterModel(np.array([[2.0]]))
        w1 = weighted_sse(pts([0, 5]), model, Assignment(np.array([0, 0])), Weights(np.array([1.0, 2.0])))
        w2 = weighted_sse(pts([0, 5]), model, Assignment(np.array([0, 0])), Weights(np.array([2.0, 4.0])))
        assert w2 == 2 * w1

    def test_permutation_invariant(self):
        rng = Lcg(99)
        values = [(rng.next_u32() % 500) / 3.0 for _ in range(30)]
        weights = [(1 + rng.next_u32() % 99) / 10.0 for _ in range(30)]
        assign = [rng.next_u32() % 3 for _ in range(30)]
        model = ClusterModel(np.array([[10.0], [50.0], [120.0]]))
        base = weighted_sse(
            pts(values), model, Assignment(np.array(assign)), Weights(np.array(weights))
        )
        perm = list(reversed(range(30)))
        permuted = weighted_sse(
            pts([values[i] for i in perm]),
            model,
            Assignment(np.array([assign[i] for i in perm])),
            Weights(np.array([weights[i] for i in perm])),
        )
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_center_dimension_mismatch_rejected(self):
        points = PointSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
        model = ClusterModel(np.array([[1.0]]))
        with pytest.raises(PreconditionError, match="dimensions differ"):
            weighted_sse(points, model, Assignment(np.array([0, 0])), Weights.unit(2))
        with pytest.raises(PreconditionError, match="dimensions differ"):
            assign_points(points, model)


class TestRunKmeans:
    def test_four_point_optimum(self):
        result = run_kmeans(pts([0, 1, 9, 10]), Weights.unit(4), ClusteringConfig(k=2))
        assert sorted(result.model.centers.ravel().tolist()) == [0.5, 9.5]
        assert result.sse_trace[-1] == 1.0
        assert result.converged

    def test_k_one_is_weighted_mean(self):
        weights = Weights(np.array([1.0, 3.0]))
        result = run_kmeans(pts([0, 8]), weights, ClusteringConfig(k=1))
        assert result.model.centers.ravel().tolist() == [6.0]

    def test_perfect_fit_reaches_zero(self):
        result = run_kmeans(pts([4, 4, 9, 9, 30]), Weights.unit(5), ClusteringConfig(k=3))
        assert result.sse_trace[-1] == 0.0

    def test_trace_non_increasing(self):
        rng = Lcg(2718)
        for _ in range(20):
            n = 10 + rng.next_u32() % 50
            values = [(rng.next_u32() % 2560) / 10.0 for _ in range(n)]
            result = run_kmeans(pts(values), Weights.unit(n), ClusteringConfig(k=3))
            trace = result.sse_trace
            assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    def test_deterministic(self):
        values = [float(v) for v in lcg_bytes(5, 200)]
        config = ClusteringConfig(k=4, init="seeded-random", seed=11)
        a = run_kmeans(pts(values), Weights.unit(200), config)
        b = run_kmeans(pts(values), Weights.unit(200), config)
        assert np.array_equal(a.model.centers, b.model.centers)
        assert a.sse_trace == b.sse_trace


class TestClusteringConfig:
    @pytest.mark.parametrize("fields", [
        {"k": 2.0},
        {"k": 2, "max_iter": 2.5},
        {"k": 2, "seed": 1.5, "init": "seeded-random"},
        {"k": "2"},
    ])
    def test_non_integer_counts_and_seed_rejected(self, fields):
        with pytest.raises(PreconditionError, match="must be an integer"):
            ClusteringConfig(**fields)

    def test_integer_likes_stored_as_int(self):
        config = ClusteringConfig(k=np.int64(3), max_iter=np.int32(5), seed=np.uint64(7))
        assert [type(v) for v in (config.k, config.max_iter, config.seed)] == [int, int, int]
        assert (config.k, config.max_iter, config.seed) == (3, 5, 7)


class TestPointSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(PreconditionError):
            PointSet(np.array([1.0, bad]))


class TestWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(PreconditionError):
            Weights(np.array([1.0, bad]))


class TestEdgeWeights:
    def test_zero_gradient_gives_unit_weights(self):
        grad = GradientMap(np.zeros((3, 3), dtype=np.int32))
        assert edge_weights(grad, 2.0).values.tolist() == [1.0] * 9

    def test_beta_zero_gives_unit_weights(self):
        grad = GradientMap(np.array([[0, 5], [10, 2]], dtype=np.int32))
        assert edge_weights(grad, 0.0).values.tolist() == [1.0] * 4

    def test_formula(self):
        grad = GradientMap(np.array([[0, 100]], dtype=np.int32))
        w = edge_weights(grad, 3.0).values
        assert w[1] == 0.25  # normalized gradient 1, 1/(1+3)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(arrays(np.int32, st.integers(1, 30), elements=st.integers(0, 2**31 - 1)),
           st.sampled_from([0, 0.0, 0.3, 2, 2.0, 25.0]))
    def test_matches_per_pixel_formula(self, magnitude, beta):
        # Python floats, one pixel at a time: the same IEEE operations
        peak = int(magnitude.max())
        want = [1.0 / (1.0 + beta * (int(m) / peak if peak else 0.0)) for m in magnitude]
        got = edge_weights(GradientMap(magnitude.reshape(1, -1)), beta).values
        assert got.tobytes() == np.array(want).tobytes()


class TestSegmentClustering:
    def test_two_valued_perfect_fit(self):
        img = GrayImage(np.array([[10, 200], [200, 10]], dtype=np.uint8))
        labels, result = segment_clustering(img, ClusteringConfig(k=2))
        assert result.sse_trace[-1] == 0.0
        assert labels.labels[0, 0] == labels.labels[1, 1]
        assert labels.labels[0, 1] == labels.labels[1, 0]
        assert labels.labels[0, 0] != labels.labels[0, 1]

    def test_beta_zero_matches_unit_weights(self):
        for seed in range(5):
            img = GrayImage(lcg_bytes(seed, 144).reshape(12, 12))
            config = ClusteringConfig(k=3)
            plain, _ = segment_clustering(img, config)
            zero_beta, _ = segment_clustering(img, config, beta=0.0)
            assert np.array_equal(plain.labels, zero_beta.labels)

    def test_noisy_half_fixture_accuracy(self):
        pix, truth = noisy_half_image()
        labels, _ = segment_clustering(GrayImage(pix), ClusteringConfig(k=2))
        errors = misclassified(labels.labels, truth)
        assert errors <= truth.size * 0.01

    def test_complete_partition(self):
        img = GrayImage(lcg_bytes(17, 100).reshape(10, 10))
        labels, _ = segment_clustering(img, ClusteringConfig(k=5))
        assert labels.complete
        assert labels.labels.min() >= 0 and labels.labels.max() < 5
