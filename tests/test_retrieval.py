import numpy as np
import pytest

from segkit.clustering import Lcg
from segkit.errors import BadHeader, BadRecord, DimensionMismatch, EmptyIndex, PreconditionError
from segkit.features import FeatureVector
from segkit.raster import GrayImage, RgbImage
from segkit.retrieval import (
    ImageRecord,
    Index,
    decode_index,
    encode_index,
    ingest,
    search_exhaustive,
    search_optimized,
    similarity,
)

from fixture_builders import clustered_records, lcg_bytes


def feature(values):
    return FeatureVector(np.array(values, dtype=np.float64))


def record_from_counts(rec_id, counts, path="p", description="d"):
    counts = np.asarray(counts, dtype=np.int64)
    return ImageRecord(
        id=rec_id, path=path, description=description, counts=counts, total=int(counts.sum())
    )


def index_from_counts(count_list):
    idx = Index(feature_dim=len(count_list[0]))
    for i, counts in enumerate(count_list):
        idx.records.append(record_from_counts(i, counts, path=f"img{i}.pgm", description=f"rec {i}"))
    return idx


def random_feature(rng: Lcg, dim: int) -> FeatureVector:
    counts = np.zeros(dim, dtype=np.int64)
    for _ in range(50):
        counts[rng.next_u32() % dim] += 1
    return FeatureVector(counts / counts.sum())


class TestSimilarity:
    def test_identical_features(self):
        f = feature([0.5, 0.5, 0, 0])
        assert similarity(f, f) == 1.0

    def test_disjoint_supports(self):
        assert similarity(feature([1, 0, 0, 0]), feature([0, 1, 0, 0])) == 0.0

    def test_partial_overlap(self):
        a = feature([0.5, 0.5, 0, 0])
        b = feature([0.25, 0.25, 0.25, 0.25])
        assert similarity(a, b) == 0.5

    def test_symmetry_and_duality(self):
        rng = Lcg(55)
        for _ in range(50):
            a = random_feature(rng, 16)
            b = random_feature(rng, 16)
            s = similarity(a, b)
            assert s == similarity(b, a)
            l1 = float(np.abs(a.bins - b.bins).sum())
            assert abs(s - (1 - l1 / 2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity(feature([1.0]), feature([0.5, 0.5]))

    def test_score_one_only_for_equal_features(self):
        rng = Lcg(91)
        for _ in range(50):
            a = random_feature(rng, 8)
            b = random_feature(rng, 8)
            if np.array_equal(a.bins, b.bins):
                assert similarity(a, b) == 1.0
            else:
                assert similarity(a, b) < 1.0


class TestIngest:
    def test_sequential_ids(self):
        idx = Index()
        img = GrayImage(np.full((2, 2), 9, dtype=np.uint8))
        assert ingest(idx, img, "first", "a.pgm") == 0
        assert ingest(idx, img, "second", "b.pgm") == 1
        assert np.array_equal(idx.records[0].counts, idx.records[1].counts)

    def test_first_ingest_fixes_dimension(self):
        idx = Index()
        color = RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
        ingest(idx, color, "color", "c.ppm")
        assert idx.feature_dim == 64
        with pytest.raises(DimensionMismatch):
            ingest(idx, GrayImage(np.zeros((2, 2), dtype=np.uint8)), "gray", "g.pgm")

    def test_pivot_distance_in_range(self):
        idx = Index()
        img = GrayImage(lcg_bytes(8, 36).reshape(6, 6))
        ingest(idx, img, "x", "x.pgm")
        assert 0.0 <= idx.records[0].pivot_distance <= 2.0

    def test_pivot_distance_exact_for_largest_total(self):
        # total * dim just below 2**63: the absolute terms sum to ~2**64
        total = (2**63 - 1) // 256
        rec = record_from_counts(0, [total] + [0] * 255)
        assert rec.pivot_distance == 255 / 128

    def test_pivot_distance_rounds_once(self):
        # both bins above 1/64: the distance is exactly 2 * 62 / 64, while
        # dividing the two integers rounded to doubles gives 1.9375000000000002
        total = 26001075975500860
        rec = record_from_counts(0, [17420695786424692, total - 17420695786424692] + [0] * 62)
        assert rec.pivot_distance == 1.9375


class TestImageRecord:
    @pytest.mark.parametrize("count", [2**63, -(2**63) - 1])
    def test_count_beyond_int64_rejected(self, count):
        with pytest.raises(PreconditionError):
            ImageRecord(id=0, path="p", description="d", counts=[count, 0], total=count)

    def test_int64_sum_wrapping_to_total_rejected(self):
        with pytest.raises(PreconditionError):
            ImageRecord(id=0, path="p", description="d", counts=[2**62] * 3 + [2**62 + 1], total=1)

    def test_numpy_integer_total_does_not_wrap(self):
        # total * dim = 2**64 + 8 is out of range; int64 arithmetic wraps it to 8
        with pytest.raises(PreconditionError):
            ImageRecord(
                id=0, path="p", description="d", counts=[2**61 + 1] + [0] * 7, total=np.int64(2**61 + 1)
            )

    def test_numpy_integer_total_stored_as_int(self):
        rec = ImageRecord(id=0, path="p", description="d", counts=[3, 1], total=np.uint64(4))
        assert type(rec.total) is int and rec.total == 4
        assert rec.pivot_distance == record_from_counts(0, [3, 1]).pivot_distance

    @pytest.mark.parametrize("total", [4.0, "4", None])
    def test_non_integral_total_rejected(self, total):
        with pytest.raises(PreconditionError):
            ImageRecord(id=0, path="p", description="d", counts=[3, 1], total=total)


class TestSearchExhaustive:
    def test_exact_match_ranks_first(self):
        idx = index_from_counts([[4, 0, 0, 0], [1, 1, 1, 1], [0, 0, 4, 0]])
        results = search_exhaustive(idx, feature([0.25, 0.25, 0.25, 0.25]), top=3)
        assert results[0].id == 1 and results[0].score == 1.0

    def test_top_capped_at_record_count(self):
        idx = index_from_counts([[1, 0], [0, 1]])
        assert len(search_exhaustive(idx, feature([1.0, 0.0]), top=10)) == 2

    def test_ties_by_ascending_id(self):
        idx = index_from_counts([[1, 0], [0, 1], [1, 0]])
        results = search_exhaustive(idx, feature([0.5, 0.5]), top=3)
        assert [r.score for r in results] == [0.5, 0.5, 0.5]
        assert [r.id for r in results] == [0, 1, 2]

    def test_empty_index(self):
        with pytest.raises(EmptyIndex):
            search_exhaustive(Index(feature_dim=4), feature([1, 0, 0, 0]), top=1)


class TestSearchOptimized:
    def test_single_record(self):
        idx = index_from_counts([[2, 2]])
        results, examined = search_optimized(idx, feature([1.0, 0.0]), top=1)
        assert examined == 1 and results[0].id == 0

    def test_matches_exhaustive_on_random_inputs(self):
        rng = Lcg(777)
        counts = []
        for _ in range(120):
            c = np.zeros(32, dtype=np.int64)
            for _ in range(40):
                c[rng.next_u32() % 32] += 1
            counts.append(c)
        idx = index_from_counts(counts)
        for trial in range(30):
            query = random_feature(rng, 32)
            top = 1 + rng.next_u32() % 10
            expected = search_exhaustive(idx, query, top)
            got, examined = search_optimized(idx, query, top)
            assert got == expected
            assert examined <= len(idx.records)

    def test_pruning_on_clustered_fixture(self):
        counts = clustered_records(n=400)
        idx = index_from_counts(counts)
        query = FeatureVector(counts[0] / counts[0].sum())
        expected = search_exhaustive(idx, query, 5)
        got, examined = search_optimized(idx, query, 5)
        assert got == expected
        assert examined < 400 * 0.6

    def test_triangle_bound_validity(self):
        rng = Lcg(31)
        counts = [np.asarray(lcg_bytes(i, 16), dtype=np.int64) + 1 for i in range(40)]
        idx = index_from_counts(counts)
        query = random_feature(rng, 16)
        pivot = np.full(16, 1 / 16)
        dq = float(np.abs(query.bins - pivot).sum())
        for rec in idx.records:
            l1 = float(np.abs(query.bins - rec.feature.bins).sum())
            assert abs(rec.pivot_distance - dq) <= l1 + 1e-12


class TestIndexCodec:
    def test_empty_round_trip(self):
        idx = Index()
        text = encode_index(idx)
        assert text == "SEGIDX\t1\t0\n"
        again = decode_index(text)
        assert again.feature_dim is None and again.records == []

    def test_tab_escaping_round_trip(self):
        counts = np.zeros(64, dtype=np.int64)
        counts[3] = 5
        idx = Index(feature_dim=64)
        idx.records.append(
            record_from_counts(0, counts, path="a\tb.ppm", description="tab\there \\ done")
        )
        again = decode_index(encode_index(idx))
        assert again.records[0].path == "a\tb.ppm"
        assert again.records[0].description == "tab\there \\ done"

    def test_random_round_trips_with_pivot_distances(self):
        rng = Lcg(606)
        for trial in range(100):
            dim = 64 if trial % 2 else 256
            idx = Index(feature_dim=dim)
            for rec_id in range(rng.next_u32() % 6):
                counts = np.zeros(dim, dtype=np.int64)
                for _ in range(30):
                    counts[rng.next_u32() % dim] += 1
                idx.records.append(
                    record_from_counts(
                        rec_id, counts, path=f"p{trial}\\x", description=f"desc {rec_id}\ttab"
                    )
                )
            again = decode_index(encode_index(idx))
            assert again.feature_dim == idx.feature_dim
            assert len(again.records) == len(idx.records)
            for a, b in zip(idx.records, again.records):
                assert np.array_equal(a.counts, b.counts)
                assert a.path == b.path and a.description == b.description
                assert a.pivot_distance == b.pivot_distance

    def test_bad_header(self):
        with pytest.raises(BadHeader):
            decode_index("WRONG\t1\t256\n")
        with pytest.raises(BadHeader):
            decode_index("SEGIDX\t2\t256\n")
        with pytest.raises(BadHeader):
            decode_index("SEGIDX\t1\t100\n")

    def test_bad_record_reports_line(self):
        text = "SEGIDX\t1\t64\n0\t5\t" + ",".join(["0"] * 63) + "\tp\td\n"
        with pytest.raises(BadRecord, match="line 2"):
            decode_index(text)

    @pytest.mark.parametrize("total,counts", [
        pytest.param(2**60, [2**60] + [0] * 255, id="total-times-dim-2**68"),
        pytest.param(2**63, [2**63] + [0] * 255, id="count-2**63"),
        pytest.param(1, [2**63 - 1, 2**63 - 1, 3] + [0] * 253, id="int64-sum-wraps-to-total"),
        pytest.param(5, [10**18 - 1] * 18 + [2**64 + 5 - 18 * (10**18 - 1)] + [0] * 237,
                     id="18-digit-counts-sum-wraps-to-total"),
    ])
    def test_out_of_range_counts_rejected(self, total, counts):
        text = f"SEGIDX\t1\t256\n0\t{total}\t{','.join(map(str, counts))}\tp\td\n"
        with pytest.raises(BadRecord, match="line 2"):
            decode_index(text)

    @pytest.mark.parametrize("count", ["+5", " 5", "5 ", "1_0", "\u0665", "0" * 18 + "5", ""])
    def test_non_canonical_counts_rejected(self, count):
        valid = ",".join(["5"] + ["0"] * 63)
        text = f"SEGIDX\t1\t64\n0\t5\t{valid}\tp\td\n1\t5\t{count},{valid[2:]}\tp\td\n"
        with pytest.raises(BadRecord, match="line 3"):
            decode_index(text)

    def test_zero_padded_counts_rejected(self):
        counts = ",".join(["0" * 17 + "5"] + ["0" * 18] * 63)
        with pytest.raises(BadRecord, match="line 2"):
            decode_index(f"SEGIDX\t1\t64\n0\t5\t{counts}\tp\td\n")

    CANONICAL = "SEGIDX\t1\t64\n0\t64\t" + ",".join(["63", "1"] + ["0"] * 62) + "\tp\td\n"

    @pytest.mark.parametrize("canonical,respelled,error", [
        pytest.param("SEGIDX\t1", "SEGIDX\t 1", BadHeader, id="version-space"),
        pytest.param("SEGIDX\t1", "SEGIDX\t01", BadHeader, id="version-zero-padded"),
        pytest.param("\t64\n", "\t064\n", BadHeader, id="dimension-zero-padded"),
        pytest.param("\n0\t", "\n+0\t", BadRecord, id="id-plus"),
        pytest.param("\n0\t", "\n00\t", BadRecord, id="id-zero-padded"),
        pytest.param("\t64\t", "\t 64\t", BadRecord, id="total-space"),
        pytest.param("\t64\t", "\t6_4\t", BadRecord, id="total-underscore"),
        pytest.param("\t63,1,", "\t63,01,", BadRecord, id="count-zero-padded"),
        pytest.param("\td\n", "\td", BadRecord, id="no-final-newline"),
        pytest.param("\tp\t", "\tp\r\t", BadRecord, id="path-raw-carriage-return"),
    ])
    def test_non_canonical_spellings_rejected(self, canonical, respelled, error):
        assert encode_index(decode_index(self.CANONICAL)) == self.CANONICAL
        assert self.CANONICAL.count(canonical) == 1
        with pytest.raises(error):
            decode_index(self.CANONICAL.replace(canonical, respelled))

    def test_non_dense_ids_rejected(self):
        counts = ",".join(["1"] + ["0"] * 63)
        text = f"SEGIDX\t1\t64\n1\t1\t{counts}\tp\td\n"
        with pytest.raises(BadRecord):
            decode_index(text)

    def test_unknown_escape_rejected(self):
        counts = ",".join(["1"] + ["0"] * 63)
        text = f"SEGIDX\t1\t64\n0\t1\t{counts}\tp\\x\td\n"
        with pytest.raises(BadRecord):
            decode_index(text)

    def test_scores_reproduced_after_round_trip(self):
        counts = clustered_records(n=40)
        idx = index_from_counts(counts)
        again = decode_index(encode_index(idx))
        query = FeatureVector(counts[7] / counts[7].sum())
        before = search_exhaustive(idx, query, 10)
        after = search_exhaustive(again, query, 10)
        assert before == after
