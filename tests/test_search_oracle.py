"""Matrix search against record-at-a-time scoring in index_oracle: the same
ids, order and score bits, and the same examined count, on indexes built
from ImageRecords, decoded, and decoded then ingested into."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import index_oracle as oracle
from segkit import retrieval
from segkit.features import FeatureVector
from segkit.raster import GrayImage, RgbImage
from segkit.retrieval import ImageRecord, Index, decode_index, encode_index, ingest

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# gray and color indexes: numpy may sum rows of each length in its own order
DIMS = pytest.mark.parametrize("dim", (64, 256))


@st.composite
def pixel_lists(draw, dim):
    """Histogram bins of the pixels of a small image from a narrow or a
    broad family, so that pivot distances spread and pruning has work to do."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from((1, 5, 50, 500, 3000)))
    center = draw(st.integers(0, dim - 1))
    spread = draw(st.sampled_from((0.5, 2, 8, 40, 255)))
    return np.clip(np.rint(rng.normal(center, spread, size)), 0, dim - 1).astype(int).tolist()


@st.composite
def corpora(draw, dim):
    """Pixel bins of up to 60 records: repeats of a few distinct ones (exact
    duplicates), some with every pixel doubled (equal bins, other totals)."""
    distinct = draw(st.lists(pixel_lists(dim), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=60))
    return [distinct[i] * draw(st.sampled_from((1, 1, 2))) for i in picks]


@st.composite
def queries(draw, corpus, dim):
    """A record's own histogram (its family, ties with its duplicates) or an
    off-distribution one: a few spikes over a uniform floor."""
    if draw(st.booleans()):
        pixels = corpus[draw(st.integers(0, len(corpus) - 1))]
    else:
        spikes = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=6))
        pixels = spikes * draw(st.integers(1, 40)) + list(range(dim))
    counts = np.bincount(pixels, minlength=dim)
    return FeatureVector(counts / counts.sum())


def image(pixels, dim):
    """A one-row image whose pixels fall in the given bins: gray levels, or
    colors with channels (r div 64, g div 64, b div 64) the bin's base-4 digits."""
    bins = np.array([pixels])
    if dim == 256:
        return GrayImage(bins.astype(np.uint8))
    return RgbImage((np.stack([bins // 16, bins // 4 % 4, bins % 4], axis=2) * 64).astype(np.uint8))


def record(rec_id, pixels, dim):
    counts = np.bincount(pixels, minlength=dim)
    return ImageRecord(id=rec_id, path=f"r{rec_id}.pgm", description=f"record {rec_id}",
                       counts=counts, total=len(pixels))


def indexes(corpus, split, dim):
    """The corpus as three indexes: of ImageRecords, decoded, and the first
    `split` records decoded with the rest ingested into them."""
    built = Index(feature_dim=dim, records=[record(i, p, dim) for i, p in enumerate(corpus)])
    grown = decode_index(encode_index(Index(feature_dim=dim, records=built.records[:split])))
    for i, pixels in enumerate(corpus[split:], start=split):
        ingest(grown, image(pixels, dim), f"record {i}", f"r{i}.pgm")
    return {"built": built, "decoded": decode_index(encode_index(built)), "ingested": grown}


def exact(results):
    return [(r.id, r.score.hex(), r.path, r.description) for r in results]


@DIMS
@PROPERTY
@given(st.data())
def test_matrix_search_matches_record_at_a_time(dim, data):
    corpus = data.draw(corpora(dim))
    query = data.draw(queries(corpus, dim))
    top = data.draw(st.integers(1, 3) | st.integers(1, len(corpus) + 3))
    split = data.draw(st.integers(0, len(corpus)))
    records = [record(i, p, dim) for i, p in enumerate(corpus)]
    want = exact(oracle.search_exhaustive(records, query.bins, top))
    want_pruned, want_examined = oracle.search_optimized(records, query.bins, top)
    assert exact(want_pruned) == want
    text = oracle.encode_index(Index(feature_dim=dim, records=records))
    # blocks of 1 and 3 rows put the stop in any block, at any row
    for block in (1, 3, retrieval._BLOCK_ROWS):
        with mock.patch.object(retrieval, "_BLOCK_ROWS", block):
            for kind, index in indexes(corpus, split, dim).items():
                got, examined = retrieval.search_optimized(index, query, top)
                assert (exact(got), examined) == (want, want_examined), (kind, block)
                assert exact(retrieval.search_exhaustive(index, query, top)) == want, (kind, block)
                assert encode_index(index) == text, (kind, block)
