"""Each segkit op loads only the modules it runs, and a CLI flag left unset
takes the library's default."""

import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import segkit
from segkit import cli, clustering, features, region, threshold
from segkit.raster import GrayImage, encode_pnm

from fixture_builders import noisy_half_image

BASE = ["segkit", "segkit.cli", "segkit.errors", "segkit.raster"]
RULES = "RULE dark : mean IN (0,0,60,100)\nRULE bright : mean IN (100,140,255,255)\n"


def loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter that finds this segkit; returns the
    JSON it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(segkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def segkit_modules_snippet(body: str) -> str:
    """Runs body, then prints the segkit modules loaded ('modules'), the
    numpy ones ('numpy'), whether dataclasses is loaded ('dataclasses') and
    the variable rc."""
    return (
        "import io, json, sys\n" + body
        + "\nprint(json.dumps({'modules': sorted(m for m in sys.modules if m.split('.')[0] == 'segkit'),"
        " 'numpy': sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),"
        " 'dataclasses': 'dataclasses' in sys.modules, 'rc': globals().get('rc')}))"
    )


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    return cli.run(argv, out=out, err=err), out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    """Input image, exemplar patches, a rule base and a one-record index."""
    pix, _ = noisy_half_image(size=32)
    paths = {}
    for name, part in (("img", pix), ("left", pix[:, :16]), ("right", pix[:, 16:])):
        paths[name] = str(tmp_path / f"{name}.pgm")
        with open(paths[name], "wb") as fh:
            fh.write(encode_pnm(GrayImage(part)))
    paths["rules"] = str(tmp_path / "rules.txt")
    with open(paths["rules"], "w") as fh:
        fh.write(RULES)
    paths["index"] = str(tmp_path / "idx.tsv")
    assert run_op(["ingest", "--index", paths["index"], "--desc", "x", paths["img"]])[0] == 0
    paths["out"] = str(tmp_path / "out.pgm")
    return paths


def test_import_loads_only_the_front_end():
    assert loaded_after(segkit_modules_snippet("import segkit"))["modules"] == ["segkit"]
    assert loaded_after(segkit_modules_snippet("import segkit.cli"))["modules"] == BASE


WINDOWS = ["segment", "--method", "windows", "--refine", "1", "--exemplar", "0:{left}", "--exemplar", "1:{right}"]
OPS = [
    pytest.param(["threshold", "--method", "otsu", "{img}", "{out}"], ["threshold"], id="threshold-otsu"),
    pytest.param(["threshold", "--method", "valley", "{img}", "{out}"], ["threshold"], id="threshold-valley"),
    pytest.param(["segment", "--method", "kmeans", "--k", "2", "{img}", "{out}"], ["clustering"], id="kmeans"),
    pytest.param(["segment", "--method", "edge", "--k", "2", "{img}", "{out}"], ["clustering"], id="edge"),
    pytest.param(["segment", "--method", "region", "{img}", "{out}"], ["region"], id="region"),
    pytest.param([*WINDOWS, "{img}", "{out}"], ["features"], id="windows"),
    pytest.param(["ingest", "--index", "{index}", "--desc", "y", "{img}"], ["retrieval"], id="ingest"),
    pytest.param(["query", "--index", "{index}", "--top", "1", "{img}"], ["retrieval"], id="query"),
    pytest.param(["predict", "--rules", "{rules}", "{img}"], ["predict", "region"], id="predict-region"),
    pytest.param(["predict", "--rules", "{rules}", "--segment-method", "kmeans", "{img}"],
                 ["clustering", "predict", "region"], id="predict-kmeans"),
    pytest.param(["predict", "--rules", "{rules}", "--segment-method", "edge", "{img}"],
                 ["clustering", "predict", "region"], id="predict-edge"),
]


@pytest.mark.parametrize("argv, modules", OPS)
def test_op_loads_only_its_modules(files, argv, modules):
    argv = [arg.format(**files) for arg in argv]
    got = loaded_after(segkit_modules_snippet(
        f"from segkit import cli\nrc = cli.run({argv!r}, io.StringIO(), io.StringIO())"
    ))
    assert got["rc"] == 0
    assert got["modules"] == sorted(BASE + [f"segkit.{m}" for m in modules])


REGION_AND_KMEANS = [p for p in OPS if p.id in ("region", "predict-region", "predict-kmeans", "kmeans")]


@pytest.mark.parametrize("argv, modules", REGION_AND_KMEANS)
def test_op_loads_no_exact_arithmetic_module(files, argv, modules):
    # region means compare as integer ratios: fractions, and the decimal
    # module it imports, cost milliseconds of every op's start-up
    argv = [arg.format(**files) for arg in argv]
    got = loaded_after(
        "import io, json, sys\nfrom segkit import cli\n"
        f"rc = cli.run({argv!r}, io.StringIO(), io.StringIO())\n"
        "print(json.dumps({'rc': rc, 'loaded': [m for m in ('fractions', 'decimal') if m in sys.modules]}))"
    )
    assert got == {"rc": 0, "loaded": []}


@pytest.fixture(scope="module")
def numpy_at_cli_import():
    return set(loaded_after(segkit_modules_snippet("import segkit.cli"))["numpy"])


@pytest.mark.parametrize("argv, modules", OPS)
def test_op_loads_no_numpy_submodule_beyond_the_cli_import(files, numpy_at_cli_import, argv, modules):
    # against the import's own set, not a fixed list: numpy 1.24 imports
    # numpy.ma eagerly, numpy 2 on first use
    argv = [arg.format(**files) for arg in argv]
    got = loaded_after(segkit_modules_snippet(
        f"from segkit import cli\nrc = cli.run({argv!r}, io.StringIO(), io.StringIO())"
    ))
    assert got["rc"] == 0
    assert sorted(set(got["numpy"]) - numpy_at_cli_import) == []


@pytest.fixture(scope="module")
def dataclasses_at_numpy_import():
    return loaded_after(segkit_modules_snippet("import argparse, numpy"))["dataclasses"]


@pytest.mark.parametrize("argv, modules", OPS)
def test_op_loads_no_dataclasses_beyond_numpy(files, dataclasses_at_numpy_import, argv, modules):
    # segkit's value types are plain frozen classes: a dataclass generates
    # and compiles its methods at import, about 1 ms a class. Against numpy's
    # own import, which may load dataclasses on other numpy versions.
    argv = [arg.format(**files) for arg in argv]
    got = loaded_after(segkit_modules_snippet(
        f"from segkit import cli\nrc = cli.run({argv!r}, io.StringIO(), io.StringIO())"
    ))
    assert got["rc"] == 0
    assert dataclasses_at_numpy_import or not got["dataclasses"]


def test_exports_are_the_submodules_objects():
    namespace = {}
    exec("from segkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(segkit.__all__)
    for name in segkit.__all__:
        obj = getattr(segkit, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert segkit.region is region
    with pytest.raises(AttributeError):
        segkit.no_such_name
    with pytest.raises(ImportError):
        from segkit import no_such_name  # noqa: F401


def test_region_flags_follow_region_params():
    params = region.RegionParams
    assert cli.REGION_FLAGS == tuple((name, type(getattr(params, name))) for name in params._fields)


REGION_DEFAULTS = [
    f"--{name.replace('_', '-')}={getattr(region.RegionParams, name)!r}" for name in region.RegionParams._fields
]
CLUSTERING_DEFAULTS = [
    f"--beta={clustering.DEFAULT_BETA!r}", f"--seed={clustering.ClusteringConfig.seed!r}", "--init=quantile",
]
CONFIG_DEFAULTS = [
    f"--max-iter={clustering.ClusteringConfig.max_iter!r}", f"--epsilon={clustering.ClusteringConfig.epsilon!r}",
]


@pytest.mark.parametrize("argv, spelled_out", [
    pytest.param(["threshold", "--method", "valley"],
                 [f"--window={threshold.DEFAULT_SMOOTH_WINDOW}", f"--min-sep={threshold.DEFAULT_MIN_SEPARATION}"],
                 id="valley"),
    pytest.param(["segment", "--method", "edge", "--k", "3"], CLUSTERING_DEFAULTS + CONFIG_DEFAULTS, id="edge"),
    pytest.param(["segment", "--method", "kmeans", "--k", "3"], CONFIG_DEFAULTS, id="kmeans"),
    pytest.param(["segment", "--method", "region"], REGION_DEFAULTS, id="region"),
    pytest.param(WINDOWS, [f"--window={features.DEFAULT_WINDOW}"], id="windows"),
    pytest.param(["predict", "--rules", "{rules}", "--segment-method", "edge"], CLUSTERING_DEFAULTS, id="predict-edge"),
    pytest.param(["predict", "--rules", "{rules}"], REGION_DEFAULTS, id="predict-region"),
])
def test_unset_flags_take_the_library_defaults(files, argv, spelled_out):
    outputs = []
    for flags in ([], spelled_out):
        full = [arg.format(**files) for arg in argv] + flags + [files["img"]]
        if argv[0] != "predict":
            full.append(files["out"])
        code, stdout, err = run_op(full)
        assert code == 0, err
        output = b""
        if os.path.exists(files["out"]):
            with open(files["out"], "rb") as fh:
                output = fh.read()
            os.unlink(files["out"])
        outputs.append((stdout, output))
    assert outputs[0] == outputs[1]

