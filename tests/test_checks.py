"""The lemma-check module (its close-pair sampler, its boundary with the package),
and the public names, the settable surface, the docstring references and the
input contract of the package, that every module of the package and the
tests uses what it imports, and that the package reads every private name it
defines.

The checks themselves are tested next to the code they are about
(test_models, test_geometry, test_denoise).
"""
import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lemma_checks
import tdcrecon
from lemma_checks import circle_geodesic_distance, circle_points, geodesic_pairs
from tdcrecon import denoise, models
from tdcrecon.denoise import SlabSpec, bandwidths, default_slab_spec, iterative_denoise, k_delta
from tdcrecon.geometry import directed_hausdorff, principal_angles
from tdcrecon.models import (
    LabeledCloud,
    SampleSpec,
    Sphere,
    Torus,
    default_k0,
    load_cloud_csv,
    make_model,
    sample,
    save_cloud_csv,
)
from tdcrecon.sparsify import farthest_point_sampling
from tdcrecon.tangent import default_bandwidth, estimate_tangents

MODULES = ["_neighbours", "denoise", "geometry", "models", "sparsify", "tangent"]
CHECK_NAMES = {"monte_carlo_reach", "geodesic_pairs", "CheckReport"}


def test_estimator_modules_hold_no_checks():
    # the package is the estimator, the models and their I/O
    assert sorted(m.name for m in pkgutil.iter_modules(tdcrecon.__path__)) == MODULES
    # no library file imports the test support
    for path in Path(tdcrecon.__file__).resolve().parent.rglob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"lemma_checks", "dense_oracles"}, path
    for name in MODULES:
        module = importlib.import_module(f"tdcrecon.{name}")
        names = set(vars(module))
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                names |= set(vars(obj))  # methods, such as a model's geodesic_pairs
        leaked = {n for n in names if n.startswith("verify_") or n in CHECK_NAMES}
        assert not leaked, f"tdcrecon.{name} defines {sorted(leaked)}"


def test_every_import_is_used():
    # no linter is installed: an import that a change leaves behind is found
    # by reading each module of the package and of the tests
    repo = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted((repo / "src").rglob("*.py")) + sorted((repo / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {(a.asname or a.name): node.lineno for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(repo)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused


def test_every_private_name_is_read():
    # dead code gets deleted: each private function, class, constant and
    # method that a module of the package defines is read by some module
    # of the package, as a name or as an attribute
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(tdcrecon.__file__).resolve().parent.rglob("*.py"))]
    defined = set()
    for node in (node for tree in trees for node in tree.body):
        items = [node, *node.body] if isinstance(node, ast.ClassDef) else [node]
        defined |= {n.name for n in items if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    defined = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    # a constant, a function and a method are among them
    assert {"_BLOCK_BYTES", "_blocks", "_rows"} <= defined
    assert sorted(defined - read) == []


def module_trees():
    """(name, module, parsed source) of every module of the package, each imported."""
    modules = [(name, importlib.import_module(f"tdcrecon.{name}")) for name in MODULES]
    return [(name, module, ast.parse(inspect.getsource(module))) for name, module in modules]


def test_public_names():
    # the names each module defines at its top level without a leading
    # underscore; a new one is argued for here
    public = {}
    for name, _, tree in module_trees():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        public[name] = sorted(n for n in defined if not n.startswith("_"))
    assert public == {
        "_neighbours": [
            "ball_lists", "check_indices", "check_int", "check_points", "check_positive",
        ],
        "denoise": [
            "IterationDiagnostics", "NO_SURVIVORS", "NO_TANGENT", "SlabSpec", "bandwidths",
            "default_slab_spec", "diagnostics_to_json", "iterative_denoise", "k_delta",
        ],
        "geometry": ["ORTHONORMALITY_TOL", "directed_hausdorff", "principal_angles"],
        "models": [
            "LabeledCloud", "MEDIAL_TOL", "ManifoldModel", "MedialAxisError", "ON_MANIFOLD_TOL",
            "SampleSpec", "Sphere", "Torus", "default_k0", "load_cloud_csv", "make_model",
            "sample", "save_cloud_csv",
        ],
        "sparsify": ["farthest_point_sampling"],
        "tangent": ["TangentField", "default_bandwidth", "estimate_tangents"],
    }


ROLES = {
    "mod": lambda obj: isinstance(obj, types.ModuleType),
    "class": lambda obj: isinstance(obj, type),
    "func": callable,
    "meth": callable,
}


def test_docstring_references_resolve():
    # a rename used to leave docs naming what no longer exists: each
    # :role:`target` names an attribute of its own module, or of the package
    # when it starts with a dot, of the kind its role says
    refs = []
    for _, module, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                refs += [(module, *ref) for ref in re.findall(r":(\w+):`([^`]*)`", doc)]
    assert len(refs) > 20
    for module, role, target in refs:
        where = f"{module.__name__}: :{role}:`{target}`"
        obj = tdcrecon if target.startswith(".") else module
        for attr in target.lstrip(".").split("."):
            assert hasattr(obj, attr), where
            obj = getattr(obj, attr)
        assert ROLES[role](obj), where


def test_settable_surface():
    # each setting is one the paper's estimator has; a new one is argued for here
    fields = {spec: [f.name for f in dataclasses.fields(spec)]
              for spec in (SampleSpec, SlabSpec, Sphere, Torus)}
    assert fields == {
        SampleSpec: ["n", "beta", "seed"],
        SlabSpec: ["k1", "k2", "t"],
        Sphere: ["radius", "ambient_dim", "intrinsic_dim"],
        Torus: ["major_radius", "minor_radius", "ambient_dim"],
    }
    # the scales are plain arguments, each checked where it enters
    signatures = {f: list(inspect.signature(f).parameters)
                  for f in (farthest_point_sampling, estimate_tangents, bandwidths,
                            iterative_denoise)}
    assert signatures == {
        farthest_point_sampling: ["points", "eps"],
        estimate_tangents: ["points", "h", "d", "subset"],
        bandwidths: ["n", "d", "beta", "kappa", "k_iters"],
        iterative_denoise: ["cloud", "d", "beta", "kappa", "spec", "k_iters"],
    }
    # a cloud is written and read whole: its checks are LabeledCloud's
    assert list(inspect.signature(save_cloud_csv).parameters) == ["path", "cloud"]
    assert list(inspect.signature(load_cloud_csv).parameters) == ["path"]
    assert not hasattr(denoise, "lemma_slab_constants")
    # the circle is the sphere of intrinsic_dim 1, not a class of its own
    kinds = {kind: make_model(kind) for kind in ("circle", "sphere", "torus")}
    assert kinds == {
        "circle": Sphere(1.0, ambient_dim=2, intrinsic_dim=1),
        "sphere": Sphere(1.0, ambient_dim=3, intrinsic_dim=2),
        "torus": Torus(),
    }
    # the base class stands for no manifold; its error names what does
    with pytest.raises(ValueError, match=r"a Sphere or a Torus, or call make_model"):
        models.ManifoldModel()
    with pytest.raises(ValueError, match="expected one of \\['circle', 'sphere', 'torus'\\]"):
        make_model("s3")
    assert not hasattr(models, "Circle")


class TestCircleGeodesicPairs:
    def test_draws_scale_with_pairs_kept(self, monkeypatch):
        # the loop once counted batches instead of pairs and drew about 2M
        # candidate pairs for k = 2000
        drawn = []

        def counted(circle, t):
            drawn.append(np.size(t))
            return circle_points(circle, t)

        monkeypatch.setattr(lemma_checks, "circle_points", counted)
        k, max_chord = 2000, 0.25
        x, _, _ = geodesic_pairs(make_model("circle"), np.random.default_rng(13), k, max_chord)
        assert len(x) == k
        # a candidate pair is close with probability 2 arcsin(c / 2) / pi
        accept = 2.0 * math.asin(max_chord / 2.0) / math.pi
        pairs_drawn = sum(drawn) / 2
        assert pairs_drawn <= 4.0 * k / accept

    def test_first_close_pairs_of_the_stream(self):
        # the batches are consecutive angle pairs of one stream, whatever
        # their sizes: the result is the first k close pairs of that stream
        circle, k, max_chord = make_model("circle"), 300, 0.25
        x, y, geo = geodesic_pairs(circle, np.random.default_rng(5), k, max_chord)
        t = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(20_000, 2))
        p, q = circle_points(circle, t[:, 0]), circle_points(circle, t[:, 1])
        close = np.flatnonzero(np.linalg.norm(p - q, axis=1) <= max_chord)[:k]
        assert len(close) == k
        assert np.array_equal(x, p[close]) and np.array_equal(y, q[close])
        arcs = [circle_geodesic_distance(circle, a, b) for a, b in zip(x, y)]
        assert np.allclose(geo, arcs, rtol=0.0, atol=1e-12)



# The input contract of every entry point (tdcrecon._neighbours): a cloud is
# (m, D) finite floats with D >= 1, a scale a real number in (0, inf) and not
# a bool, an object argument an instance of its class.  The table holds the
# cases that an entry point took, or failed on inside scipy or with an
# AttributeError, before it took its input through check_points,
# check_positive or _check_instance; the other cases are tested next to each
# entry point.  SCALES has a row for every scale (test_every_scale_has_a_row).
CLOUD = np.random.default_rng(0).normal(size=(30, 3))
SCALES = {
    "estimate_tangents.h": lambda v: estimate_tangents(CLOUD, v, 1),
    "default_bandwidth.c": lambda v: default_bandwidth(100, 1, v),
    "SlabSpec.k1": lambda v: SlabSpec(v, 0.5, 1.0),
    "SlabSpec.k2": lambda v: SlabSpec(0.5, v, 1.0),
    "SlabSpec.t": lambda v: SlabSpec(0.5, 0.5, v),  # in [0, inf)
    "default_slab_spec.rho": lambda v: default_slab_spec(1, 3, v, 1.0),
    "default_slab_spec.K": lambda v: default_slab_spec(1, 3, 1.0, 1.0, v),
    "bandwidths.kappa": lambda v: bandwidths(100, 1, 0.8, v, 2),
    "farthest_point_sampling.eps": lambda v: farthest_point_sampling(CLOUD, v),
    "Sphere.grid": lambda v: Sphere().grid(v),
    "Torus.grid": lambda v: Torus().grid(v),
    "Sphere.radius": lambda v: Sphere(radius=v),
    "Torus.major_radius": lambda v: Torus(major_radius=v, minor_radius=0.5),
    "Torus.minor_radius": lambda v: Torus(major_radius=2.0, minor_radius=v),
    "SampleSpec.beta": lambda v: SampleSpec(n=5, beta=v),
    "bandwidths.beta": lambda v: bandwidths(100, 1, v, 1.0, 2),
}
CALLS = {
    "k_delta.delta": lambda v: k_delta(1, v),  # in (0, 1/(d(d+1)))
    "farthest_point_sampling": lambda x: farthest_point_sampling(x, 0.1),
    "directed_hausdorff-a": lambda x: directed_hausdorff(x, CLOUD),
    "directed_hausdorff-b": lambda x: directed_hausdorff(CLOUD, x),
    "LabeledCloud": LabeledCloud,
    "iterative_denoise.cloud": lambda v: iterative_denoise(v, 1, 0.8, 8.0, SlabSpec(1, 1, 1), 2),
    "iterative_denoise.spec": lambda v: iterative_denoise(LabeledCloud(CLOUD), 1, 0.8, 8.0, v, 2),
    "sample.model": lambda v: sample(v, SampleSpec(n=5)),
    "sample.spec": lambda v: sample(Torus(), v),
    "save_cloud_csv.cloud": lambda v: save_cloud_csv(os.devnull, v),
    "default_k0.model": default_k0,
    "ManifoldModel": lambda v: models.ManifoldModel(),
    **SCALES,
}
OBJECTS = ("cloud", "spec", "model")  # object arguments, named in the error
NAN_CLOUD, INF_CLOUD = CLOUD.copy(), CLOUD.copy()
NAN_CLOUD[3, 0], INF_CLOUD[3, 0] = math.nan, -math.inf
BAD = {
    "1-d": CLOUD[0],
    "no-columns": np.zeros((30, 0)),
    "nan-point": NAN_CLOUD,
    "inf-point": INF_CLOUD,
    "complex-point": np.array([[1 + 2j, 0.0], [3.0, 4.0]]),
    # three columns, as CLOUD has, so that directed_hausdorff took them
    "text-cloud": [["1", "2", "3"], ["4", "5", "6"]],
    "bytes-cloud": [[b"1", 2, 3], [4, 5, 6]],
    "bool-cloud": np.array([[True, False, True], [False, True, False]]),
    "object-complex-cloud": np.array([[1 + 0j, 2, 3], [4, 5, 6]], dtype=object),
    "inf": math.inf,
    "above-1": 1.5,
    "bool": True,
    "str": "0.1",
    "None": None,
    "points": CLOUD,
    "tuple": (0.5, 0.5, 1.0),
    "kind": "circle",
}
CASES = [
    ("farthest_point_sampling", "no-columns"),  # scipy's IndexError
    ("directed_hausdorff-a", "1-d"),  # read as one point
    ("directed_hausdorff-b", "1-d"),
    # a cloud took NaN, inf and no columns; it rejected a 1-d array already
    *(("LabeledCloud", kind) for kind in ("1-d", "no-columns", "nan-point", "inf-point")),
    # numpy's cast kept the real part of a complex cloud, with a ComplexWarning
    *((entry, "complex-point")
      for entry in ("LabeledCloud", "farthest_point_sampling", "directed_hausdorff-a")),
    # the cast parsed text and bytes and read bools as 0 and 1; an object
    # array holding a complex entry raised numpy's TypeError
    *((entry, kind)
      for entry in ("LabeledCloud", "farthest_point_sampling", "directed_hausdorff-a")
      for kind in ("text-cloud", "bytes-cloud", "bool-cloud", "object-complex-cloud")),
    # an infinite h listed all n^2 pairs, an infinite eps gave the net [0]
    # and an infinite resolution a grid of 3 points; an infinite reach or
    # sphere radius raised already (the torus radii and the betas did too,
    # through checks this contract now reorders)
    *((scale, "inf") for scale in SCALES if scale not in ("default_slab_spec.rho", "Sphere.radius")),
    *((scale, "bool") for scale in SCALES),
    # a comparison raised TypeError on these before the radii, t and delta
    # were checked for a real number first; the others raised already
    *((scale, kind) for scale in [*SCALES, "k_delta.delta"] for kind in ("str", "None")),
    # a beta above 1 raised already; the rows keep both comparisons tested
    ("SampleSpec.beta", "above-1"),
    ("bandwidths.beta", "above-1"),
    # these raised AttributeError on the first attribute read
    ("iterative_denoise.cloud", "points"),
    ("iterative_denoise.spec", "None"),
    ("iterative_denoise.spec", "tuple"),
    ("sample.model", "kind"),
    ("sample.spec", "None"),
    *((entry, kind) for entry in ("save_cloud_csv.cloud", "default_k0.model")
      for kind in ("points", "None")),
    # the base class was built, and sample() then raised AttributeError on it
    ("ManifoldModel", "None"),
]


@pytest.mark.parametrize("entry, kind", CASES, ids=[f"{e}-{k}" for e, k in CASES])
def test_bad_input_raises(entry, kind):
    arg = entry.partition(".")[2]
    with pytest.raises(ValueError, match=f" as {arg}, got" if arg in OBJECTS else None):
        CALLS[entry](BAD[kind])


def test_every_scale_has_a_row():
    # each name src/ passes to check_positive, as often as it passes it, is
    # the name a SCALES row's error gives for a bool: a new scale adds a row
    repo = Path(__file__).resolve().parents[1]
    checked = Counter(
        node.args[1].value
        for path in sorted((repo / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_positive"
    )
    named = Counter()
    for call in SCALES.values():
        with pytest.raises(ValueError) as raised:
            call(True)
        named.update(re.findall(r"^need (.+) > 0", str(raised.value)))
    assert named == checked


def test_cloud_error_names_its_dtype():
    with pytest.raises(ValueError, match=r"integer or float points as a, got dtype bool"):
        directed_hausdorff(BAD["bool-cloud"], CLOUD)
    with pytest.raises(ValueError, match=r"integer or float points as b, got dtype <U1"):
        directed_hausdorff(CLOUD, BAD["text-cloud"])


def test_hausdorff_names_a_stack_of_clouds():
    # it used to report "ambient dimension mismatch: 2 vs 3"
    with pytest.raises(ValueError, match=r"point array with D >= 1 as a, got shape \(2, 2, 3\)"):
        directed_hausdorff(np.zeros((2, 2, 3)), np.zeros((2, 3)))


# Every entry point reads its arrays and never writes them: a cloud's arrays
# are read-only copies (test_models), and every estimator path copies before
# it writes.
def frozen(x):
    """A read-only copy of ``x``: a write to it raises."""
    x = np.array(x)
    x.setflags(write=False)
    return x


_rng = np.random.default_rng(11)
CIRCLE3, TORUS = make_model("circle", ambient_dim=3), Torus()
ON_CIRCLE = frozen(CIRCLE3.sample_points(_rng, 200))
ON_TORUS = frozen(TORUS.sample_points(_rng, 200))
NEAR_CIRCLE = frozen(ON_CIRCLE + 0.05 * _rng.standard_normal(ON_CIRCLE.shape))
NEAR_TORUS = frozen(ON_TORUS + 0.05 * _rng.standard_normal(ON_TORUS.shape))
BASES = frozen(CIRCLE3.tangent_many(ON_CIRCLE))
READ_MODELS = {"Sphere": (CIRCLE3, ON_CIRCLE, NEAR_CIRCLE), "Torus": (TORUS, ON_TORUS, NEAR_TORUS)}
READS = {
    "estimate_tangents": (
        lambda x, subset: estimate_tangents(x, 0.3, 1, subset),
        (NEAR_CIRCLE, frozen(np.arange(0, 200, 7))),
    ),
    "iterative_denoise": (
        lambda cloud: iterative_denoise(cloud, 1, 0.8, 8.0, default_slab_spec(1, 3, 1.0, 0.4), 2),
        (sample(CIRCLE3, SampleSpec(n=300, beta=0.8, seed=11)),),
    ),
    "farthest_point_sampling": (lambda x: farthest_point_sampling(x, 0.2), (NEAR_CIRCLE,)),
    "directed_hausdorff": (directed_hausdorff, (NEAR_CIRCLE, ON_CIRCLE)),
    "principal_angles": (principal_angles, (BASES, frozen(BASES[::-1]))),
    **{
        f"{kind}.{method}": (getattr(model, method), (on if method == "tangent_many" else near,))
        for kind, (model, on, near) in READ_MODELS.items()
        for method in ("project_many", "distance_many", "tangent_many")
    },
}


@pytest.mark.parametrize("entry", READS)
def test_entry_point_leaves_its_input_as_it_was(entry):
    call, args = READS[entry]
    # a cloud's arrays are its input
    arrays = [a for arg in args
              for a in ((arg.points, arg.labels) if isinstance(arg, LabeledCloud) else (arg,))]
    assert all(not a.flags.writeable for a in arrays)
    before = [a.tobytes() for a in arrays]
    call(*args)
    assert [a.tobytes() for a in arrays] == before
