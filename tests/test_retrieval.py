import sys
import threading

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

import index_oracle as oracle
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

    @pytest.mark.parametrize("source", ["constructed", "decoded"])
    def test_counts_and_bins_read_only(self, source):
        rec = record_from_counts(0, [3, 1] + [0] * 62)
        if source == "decoded":
            rec = decode_index(encode_index(Index(feature_dim=64, records=[rec]))).records[0]
        text = encode_index(Index(feature_dim=64, records=[rec]))
        for array in (rec.counts, rec.feature.bins):
            with pytest.raises(ValueError):
                array[0] += 1
        assert rec.counts[:2].tolist() == [3, 1]
        assert encode_index(Index(feature_dim=64, records=[rec])) == text

    def test_holds_only_its_fields_and_line(self):
        rec = record_from_counts(3, [3, 1, 0, 0], path="a.pgm", description="x")
        assert vars(rec) == {
            "id": 3, "path": "a.pgm", "description": "x", "counts": rec.counts, "total": 4,
            "_line": "3\t4\t3,1,0,0\ta.pgm\tx",
        }
        assert rec.feature.bins.tolist() == [0.75, 0.25, 0.0, 0.0]
        assert rec.pivot_distance == 1.0 and "pivot_distance" in vars(rec)

    @pytest.mark.parametrize("dim", [64, 256])
    def test_line_joins_counts_with_commas(self, dim):
        rng = np.random.default_rng(dim)
        bound = (2**63 - 1) // dim  # the largest total: total * dim < 2**63
        rows = [np.eye(dim, dtype=np.int64)[0], np.eye(dim, dtype=np.int64)[-1] * bound]
        # an all-zero row is no record (its total, 0, is refused), so zero rows
        # here keep a single nonzero bin; then sparse, dense and near-bound rows
        for i in range(12):
            row = np.zeros(dim, dtype=np.int64)
            row[rng.integers(dim)] = rng.integers(1, 10**rng.integers(1, 18))
            rows.append(row)
            rows.append(rng.integers(0, 5, dim) * (rng.random(dim) < 0.1) + row)
            rows.append(rng.integers(0, 10**rng.integers(1, 12), dim))
            split = np.sort(rng.integers(0, bound - i, dim - 1))
            rows.append(np.diff(split, prepend=0, append=bound - i))
        for rec_id, counts in enumerate(rows):
            rec = record_from_counts(rec_id, counts, path="a b", description="c")
            assert rec.total <= bound
            assert rec._line == f"{rec_id}\t{rec.total}\t{','.join(map(str, counts.tolist()))}\ta b\tc"

    def test_callers_counts_stay_writeable_and_unshared(self):
        counts = np.array([3, 1, 0, 0], dtype=np.int64)
        rec = record_from_counts(0, counts)
        counts[0] += 1
        assert counts.flags.writeable
        assert rec.counts.tolist() == [3, 1, 0, 0] and rec.feature.bins[0] == 0.75


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


def decoded_64_bin_index():
    return decode_index(encode_index(index_from_counts([[1] * 64])))


def with_dim(idx, dim):
    idx.feature_dim = dim
    return idx


def with_record(idx, rec):
    idx.records.append(rec)
    return idx


class TestCountsOfAnotherWidth:
    """Both searches refuse, naming the record, an index that encode_index
    refuses for its count widths."""

    @pytest.mark.parametrize("search", [search_exhaustive, search_optimized])
    @pytest.mark.parametrize("make, dim, error", [
        # widths that differ from each other
        pytest.param(lambda: index_from_counts([[1, 1], [1, 1, 1]]), 2,
                     "record 1 has 3 counts; feature_dim is 2", id="mixed"),
        # widths equal to each other but not to feature_dim
        pytest.param(lambda: with_dim(index_from_counts([[1, 1, 1]] * 2), 2), 2,
                     "record 0 has 3 counts; feature_dim is 2", id="not-feature-dim"),
        # decoded rows under a reassigned feature_dim
        pytest.param(lambda: with_dim(decoded_64_bin_index(), 256), 256,
                     "record 0 has 64 counts; feature_dim is 256", id="decoded-reassigned"),
        # a record appended after the decoded rows
        pytest.param(lambda: with_record(decoded_64_bin_index(), record_from_counts(1, [1] * 256)), 64,
                     "record 1 has 256 counts; feature_dim is 64", id="decoded-appended"),
    ])
    def test_refused_like_encode_index(self, search, make, dim, error):
        idx = make()
        with pytest.raises(PreconditionError, match=error):
            search(idx, feature(np.eye(dim)[0]), top=1)
        if dim in (64, 256):
            with pytest.raises(PreconditionError, match=error):
                encode_index(idx)


class TestRecordListChanges:
    """Searches keep a table derived from the record list; a change to the
    list after a search shows in the next search and in encode_index."""

    QUERY = feature(np.eye(64)[5])

    def assert_current(self, idx):
        for top in (1, 3, 9):
            want = oracle.search_exhaustive(idx.records, self.QUERY.bins, top)
            assert search_exhaustive(idx, self.QUERY, top) == want
            assert search_optimized(idx, self.QUERY, top)[0] == want
        assert encode_index(idx) == oracle.encode_index(idx)

    def top_ids(self, idx, top):
        return [r.id for r in search_optimized(idx, self.QUERY, top)[0]]

    @pytest.mark.parametrize("source", ["constructed", "decoded"])
    def test_append_replace_and_copy(self, source):
        idx = index_from_counts([np.eye(64, dtype=np.int64)[level] * 4 for level in range(4)])
        if source == "decoded":
            idx = decode_index(encode_index(idx))
        self.assert_current(idx)
        idx.records.append(record_from_counts(4, np.eye(64, dtype=np.int64)[5], path="appended"))
        self.assert_current(idx)
        assert self.top_ids(idx, 1) == [4]
        idx.records[1] = record_from_counts(1, np.eye(64, dtype=np.int64)[5] * 2, path="replaced")
        self.assert_current(idx)
        assert self.top_ids(idx, 2) == [1, 4]
        copy = Index(feature_dim=64, records=list(idx.records))
        copy.records[0] = record_from_counts(0, np.eye(64, dtype=np.int64)[5] * 3, path="copied")
        self.assert_current(copy)
        self.assert_current(idx)
        assert self.top_ids(copy, 3) == [0, 1, 4] and self.top_ids(idx, 3) == [1, 4, 0]


    def test_concurrent_first_reads_of_a_decoded_index_agree(self):
        # readers may race to build the record list
        counts = clustered_records(n=200, dim=64)
        text = encode_index(index_from_counts(counts))
        query = FeatureVector(counts[3] / counts[3].sum())
        want = search_exhaustive(decode_index(text), query, 5)
        reads = (
            lambda idx: len(idx.records) == 200,
            lambda idx: encode_index(idx) == text,
            lambda idx: search_optimized(idx, query, 5)[0] == want,
            lambda idx: search_exhaustive(idx, query, 5) == want,
        )
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                idx = decode_index(text)
                barrier = threading.Barrier(2 * len(reads))
                results = []

                def run(read):
                    barrier.wait(timeout=30)
                    results.append(read(idx))

                threads = [threading.Thread(target=run, args=(read,)) for read in reads * 2]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == [True] * len(threads)
                assert len(idx.records) == 200 and encode_index(idx) == text
        finally:
            sys.setswitchinterval(old)


class TestSearchOptimized:
    def test_single_record(self):
        idx = index_from_counts([[2, 2]])
        results, examined = search_optimized(idx, feature([1.0, 0.0]), top=1)
        assert examined == 1 and results[0].id == 0

    def test_ids_other_than_positions(self):
        # a caller's records need not be numbered by position
        idx = Index(feature_dim=4, records=[
            record_from_counts(7, [2, 1, 1, 1], path="seven"),
            record_from_counts(3, [1, 2, 1, 1], path="three"),
            record_from_counts(5, [1, 2, 1, 1], path="five"),
        ])
        query = feature([0.4, 0.2, 0.2, 0.2])
        want = search_exhaustive(idx, query, 3)
        assert [(r.id, r.path) for r in want] == [(7, "seven"), (3, "three"), (5, "five")]
        assert search_optimized(idx, query, 3)[0] == want

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

    def test_version_attribute_does_not_reach_the_header(self):
        idx = Index()
        idx.version = 2
        text = encode_index(idx)
        assert text == "SEGIDX\t1\t0\n"
        assert decode_index(text).feature_dim is None

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

    @pytest.mark.parametrize("record", ["0\tx", "0\t1\t1\tp\td"])
    def test_records_under_dimension_zero_are_a_bad_header(self, record):
        with pytest.raises(BadHeader, match="dimension is 0"):
            decode_index(f"SEGIDX\t1\t0\n{record}\n")

    def test_unset_dimension_with_records_not_encoded(self):
        idx = Index(records=[record_from_counts(0, [1] * 256)])
        with pytest.raises(PreconditionError, match="record 0 has 256 counts"):
            encode_index(idx)

    @pytest.mark.parametrize("dim", [4, 64.0, True])
    def test_unsupported_dimension_not_encoded(self, dim):
        with pytest.raises(PreconditionError):
            encode_index(Index(feature_dim=dim))

    def test_counts_of_another_dimension_not_encoded(self):
        records = [record_from_counts(0, [1] * 256), record_from_counts(1, [1] * 64)]
        with pytest.raises(PreconditionError, match="record 1 has 64 counts; feature_dim is 256"):
            encode_index(Index(feature_dim=256, records=records))

    def test_ids_other_than_positions_not_encoded(self):
        records = [record_from_counts(0, [1] * 64), record_from_counts(5, [1] * 64)]
        with pytest.raises(PreconditionError, match="record 1 has id 5"):
            encode_index(Index(feature_dim=64, records=records))

    def test_reassigned_dimension_of_decoded_records_not_encoded(self):
        idx = decode_index(encode_index(Index(feature_dim=64, records=[record_from_counts(0, [1] * 64)])))
        idx.feature_dim = 256
        with pytest.raises(PreconditionError, match="record 0 has 64 counts"):
            encode_index(idx)

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
