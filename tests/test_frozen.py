"""raster.frozen, the helper behind every segkit value type: binding,
__post_init__, immutability, and the dataclass-compatible __repr__,
__eq__ and __hash__."""

import dataclasses

import numpy as np
import pytest

from segkit.clustering import ClusteringConfig
from segkit.raster import FrozenInstanceError, GrayImage, LabelMap, frozen
from segkit.region import RegionParams
from segkit.retrieval import Index, RankedResult, _Columns, decode_index, encode_index, ingest


@frozen
class Span:
    start: int
    stop: int
    step: int = 1
    label: str = "span"

    def __post_init__(self):
        if self.stop < self.start:
            raise ValueError("stop before start")
        object.__setattr__(self, "label", self.label.strip())


@frozen
class Bare:
    value: object


class TestBinding:
    def test_positional_keyword_and_default(self):
        assert vars(Span(1, 5)) == {"start": 1, "stop": 5, "step": 1, "label": "span"}
        assert Span(1, stop=5, label="x") == Span(1, 5, 1, "x")
        assert Span(stop=5, start=1, step=2).step == 2

    def test_fields_and_class_defaults(self):
        assert Span._fields == ("start", "stop", "step", "label")
        assert (Span.step, Span.label) == (1, "span")
        assert ClusteringConfig._fields == ("k", "max_iter", "epsilon", "init", "seed")
        assert ClusteringConfig.seed == 0

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "missing required arguments: 'start', 'stop'"),
        ((1,), {"step": 2}, "missing required arguments: 'stop'"),
        ((1, 2), {"width": 3}, "got an unexpected keyword argument 'width'"),
        ((1, 2), {"start": 3}, "got multiple values for argument 'start'"),
        ((1, 2, 3, "x", 5), {}, "takes 5 positional arguments but 6 were given"),
    ])
    def test_bad_arguments(self, args, kwargs, message):
        with pytest.raises(TypeError, match=f"^Span.__init__\\(\\) {message}$"):
            Span(*args, **kwargs)

    def test_post_init_checks_and_normalizes(self):
        assert Span(1, 2, label="  a ").label == "a"
        with pytest.raises(ValueError):
            Span(2, 1)
        config = ClusteringConfig(k=np.int64(3))
        assert type(config.k) is int and config == ClusteringConfig(3)
        assert GrayImage([[1, 2]]).pixels.dtype == np.uint8

    def test_no_post_init(self):
        assert Bare(value=[1]).value == [1]


class TestFrozen:
    @pytest.mark.parametrize("value", [Span(1, 2), RegionParams(), LabelMap(np.zeros((2, 2)), k=1)])
    def test_assignment_and_deletion_raise(self, value):
        name = type(value)._fields[0]
        before = getattr(value, name)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) is before

    def test_columns_cached_properties(self):
        index = Index()
        for level in (0, 128, 255):
            ingest(index, GrayImage(np.full((2, 2), level)), f"d{level}", f"p{level}")
        columns = decode_index(encode_index(index))._parts[0]
        assert isinstance(columns, _Columns)
        assert columns.divisors is columns.divisors
        assert columns.pivots is columns.pivots
        assert columns.pivots.tolist() == [r.pivot_distance for r in index.records]
        with pytest.raises(FrozenInstanceError):
            columns.pivots = None


@dataclasses.dataclass(frozen=True)
class _DataclassRankedResult:
    """retrieval.RankedResult as the dataclass it was."""

    id: int
    score: float
    path: str
    description: str


class TestLikeDataclass:
    def test_repr(self):
        result = RankedResult(id=1, score=0.5, path="p", description="d")
        assert repr(result) == "RankedResult(id=1, score=0.5, path='p', description='d')"
        twin = _DataclassRankedResult(id=1, score=0.5, path="p", description="d")
        assert repr(result) == repr(twin).replace("_DataclassRankedResult", "RankedResult")

    def test_eq_and_hash(self):
        a, b = RankedResult(1, 0.5, "p", "d"), RankedResult(id=1, score=0.5, path="p", description="d")
        twin = _DataclassRankedResult(1, 0.5, "p", "d")
        assert a == b and hash(a) == hash(b) == hash(twin)
        assert a != RankedResult(2, 0.5, "p", "d")
        assert a != twin and a != (1, 0.5, "p", "d")
        assert len({a, b, RankedResult(1, 0.25, "p", "d")}) == 2

    def test_array_fields(self):
        # as a dataclass: equal when the arrays are the same object, an
        # error when numpy must decide the truth of an elementwise compare;
        # unhashable either way
        pixels = np.zeros((2, 2), dtype=np.uint8)
        assert GrayImage(pixels) == GrayImage(pixels)
        with pytest.raises(ValueError):
            GrayImage(pixels) == GrayImage(pixels.copy())
        with pytest.raises(TypeError):
            hash(GrayImage(pixels))
