"""The scan loader and writer work on the Scan's stacked arrays.

The loader reference below is the per-object construction the stacked pass
replaced: scan_io's field parsing, LinePD / PlaneHesse, and then from_pd /
from_hesse through the per-object from_affine; the loaded Scan's arrays must
match it byte for byte.  The writer reference is the per-element writer
through to_pd / to_hesse, whose output `scan_to_dict` must match byte for byte.
"""

import json
import warnings

import numpy as np
import pytest

from graffassoc import (
    GraffElement,
    LinePD,
    PairConfig,
    PlaneHesse,
    RigidTransform,
    Scan,
    SceneConfig,
    from_hesse,
    from_pd,
    generate_scene,
    make_loop_pair,
    rotation_about_axis,
    to_hesse,
    to_pd,
)
from graffassoc.scan_io import ScanFormatError, _unit, _vector, scan_from_dict, scan_to_dict


def reference_from_affine(A, b):
    """GraffElement.from_affine as one 3 x k QR per object."""
    A = np.asarray(A, dtype=float)
    q, r = np.linalg.qr(A)
    q = q * np.sign(np.diag(r))
    b = np.asarray(b, dtype=float)
    return GraffElement(q, b - q @ (q.T @ b))


def reference_from_pd(line: LinePD) -> GraffElement:
    return reference_from_affine(line.a[:, None], line.p)


def reference_from_hesse(plane: PlaneHesse) -> GraffElement:
    n = plane.n
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(n)))] = 1.0
    u = np.cross(n, helper)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return reference_from_affine(np.column_stack([u, v]), plane.d * n)


def reference_scan(doc) -> Scan:
    objects, centroids = [], []
    for index, entry in enumerate(doc["objects"]):
        where = f"objects[{index}]"
        if entry["kind"] == "line":
            block = entry["line"]
            direction = _unit(block["direction"], "direction", f"{where}.line")
            objects.append(reference_from_pd(LinePD(direction, _vector(block["point"], "point", f"{where}.line"))))
        else:
            block = entry["plane"]
            normal = _unit(block["normal"], "normal", f"{where}.plane")
            objects.append(reference_from_hesse(PlaneHesse(normal, float(block["d"]))))
        if entry.get("centroid") is not None:
            centroids.append(_vector(entry["centroid"], "centroid", where))
    return Scan.from_elements(doc["id"], tuple(objects), tuple(centroids) if centroids else None)


def reference_to_dict(scan_id, objects, centroids=None) -> dict:
    """The per-element writer: to_pd / to_hesse on each GraffElement."""
    entries = []
    for index, el in enumerate(objects):
        if el.k == 1:
            ln = to_pd(el)
            entry = {"kind": "line", "line": {"direction": list(ln.a), "point": list(ln.p)}}
        else:
            pl = to_hesse(el)
            entry = {"kind": "plane", "plane": {"normal": list(pl.n), "d": pl.d}}
        if centroids is not None:
            entry["centroid"] = list(np.asarray(centroids[index], dtype=float))
        entries.append(entry)
    return {"schema": 1, "id": scan_id, "objects": entries}


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def loaded_with_warnings(load, doc):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = load(doc)
    return scan, [str(w.message) for w in caught]


def assert_identical(doc):
    """Load doc both ways; the elements, Scan arrays and warnings must agree."""
    loaded, loaded_warnings = loaded_with_warnings(scan_from_dict, doc)
    reference, reference_warnings = loaded_with_warnings(reference_scan, doc)
    assert loaded_warnings == reference_warnings
    assert len(loaded.objects) == len(reference.objects)
    for index, (el, ref) in enumerate(zip(loaded.objects, reference.objects)):
        assert same_bytes(el.b0, ref.b0), index
    for name in ("kinds", "b0", "rep"):
        assert same_bytes(getattr(loaded, name), getattr(reference, name)), name
    assert (loaded.centroids is None) == (reference.centroids is None)
    if loaded.centroids is not None:
        assert same_bytes(loaded.centroids, reference.centroids)
    return loaded, loaded_warnings


def line(direction, point):
    return {"kind": "line", "line": {"direction": list(direction), "point": list(point)}}


def plane(normal, d):
    return {"kind": "plane", "plane": {"normal": list(normal), "d": d}}


def document(objects):
    # a JSON round trip, so the loader sees what a scan file gives it
    return json.loads(json.dumps({"schema": 1, "id": "s", "objects": objects}))


def criterion_fixture_docs():
    """The scan pairs of acceptance criteria 7 and 8."""
    pair7 = make_loop_pair(
        generate_scene(SceneConfig(seed=11)),
        PairConfig(baseline_m=8.0, overlap=1.0, clutter=5, noise_dir_rad=np.radians(0.5), noise_disp_m=0.05, seed=12),
    )
    pair8 = make_loop_pair(generate_scene(SceneConfig(seed=21)), PairConfig(overlap=0.9, clutter=3, seed=22))
    for pair in (pair7, pair8):
        for scan in (pair.scan_i, pair.scan_j):
            yield json.loads(json.dumps(scan_to_dict(scan)))


AXES = [sign * np.eye(3)[i] for i in range(3) for sign in (1.0, -1.0)]


class TestStackedLoader:
    @pytest.mark.parametrize("doc", list(criterion_fixture_docs()), ids=["c7-i", "c7-j", "c8-i", "c8-j"])
    def test_criterion_fixtures(self, doc):
        assert len(assert_identical(doc)[0]) > 0

    def test_random_scans_with_negative_offsets(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            objects = [plane(rng.normal(size=3), -float(rng.uniform(0.1, 50)))]
            for _ in range(int(rng.integers(0, 40))):
                if rng.uniform() < 0.4:
                    objects.append(line(rng.normal(size=3), rng.uniform(-100, 100, 3)))
                else:
                    objects.append(plane(rng.normal(size=3), float(rng.uniform(-50, 50))))
            rng.shuffle(objects)
            assert_identical(document(objects))

    def test_zero_offsets_with_negative_leading_entry(self):
        normals = [[-1, 0, 0], [0, -0.6, 0.8], [0, 0, -1], [-0.6, 0.8, 0], [0.6, -0.8, 0]]
        doc = document([plane(n, d) for n in normals for d in (0.0, -0.0)])
        assert [np.copysign(1.0, o["plane"]["d"]) for o in doc["objects"][:2]] == [1.0, -1.0]
        loaded, _ = assert_identical(doc)
        assert (loaded.rep[:, 0] >= 0).all()

    def test_axis_aligned_normals_and_directions(self):
        # |n| ties in the helper-axis argmin for every plane here
        objects = [plane(n, d) for n in AXES for d in (2.0, -2.0, 0.0)]
        objects += [plane([s * 0.6, 0.8, 0], 1.0) for s in (1, -1)] + [plane([0.6, 0, 0.8], -1.0)]
        objects += [line(a, [1.0, 2.0, 3.0]) for a in AXES]
        assert_identical(document(objects))

    @pytest.mark.parametrize("scale,warns", [(1.0 + 4e-4, False), (1.0 - 9e-4, False), (1.5, True), (0.2, True)])
    def test_renormalization_bands(self, scale, warns):
        rng = np.random.default_rng(9)
        objects = []
        for _ in range(6):
            unit = rng.normal(size=3)
            unit /= np.linalg.norm(unit)
            objects += [line(scale * unit, rng.normal(size=3)), plane(scale * unit, float(rng.normal()))]
        _, loaded_warnings = assert_identical(document(objects))
        assert len(loaded_warnings) == (12 if warns else 0)

    @pytest.mark.parametrize(
        "objects",
        [[], [line([0, 0, 1], [1, 0, 0]), line([1, 1, 0], [0, 0, 5])], [plane([0, 0, 1], 3.0), plane([1, 2, 2], -1.0)]],
        ids=["empty", "lines-only", "planes-only"],
    )
    def test_single_kind_and_empty_scans(self, objects):
        loaded, _ = assert_identical(document(objects))
        assert len(loaded) == len(objects)
        assert loaded.kinds.tolist() == [2 if o["kind"] == "plane" else 1 for o in objects]

    def test_centroids_kept_in_order(self):
        objects = [line([0, 0, 1], [1, 0, 0]), plane([0, 1, 0], 2.0), line([1, 0, 0], [0, 3, 0])]
        for index, entry in enumerate(objects):
            entry["centroid"] = [float(index), 0.5, -1.0]
        loaded, _ = assert_identical(document(objects))
        assert loaded.kinds.tolist() == [1, 2, 1]


class TestArrayWriter:
    """scan_to_dict writes from the stacked arrays, byte-identical to the per-element writer."""

    def assert_writes_like_reference(self, objects, centroids=None):
        scan = Scan.from_elements("w", objects, centroids)
        assert json.dumps(scan_to_dict(scan)) == json.dumps(reference_to_dict("w", objects, centroids))

    def test_random_lines_and_planes(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            objects = []
            for _ in range(int(rng.integers(0, 30))):
                v = rng.normal(size=3)
                if rng.uniform() < 0.4:
                    objects.append(from_pd(LinePD(v, rng.uniform(-100, 100, 3))))
                else:
                    objects.append(from_hesse(PlaneHesse(v, float(rng.uniform(-50, 50)))))
            centroids = rng.normal(size=(len(objects), 3)) if trial % 2 else None
            self.assert_writes_like_reference(objects, centroids)

    def test_moved_elements(self):
        # bases that are not from_hesse's, with normals facing away from b0
        rng = np.random.default_rng(22)
        T = RigidTransform(rotation_about_axis([0.3, -1.0, 0.4], 2.5), np.array([-4.0, 9.0, 1.0]))
        objects = [from_hesse(PlaneHesse(rng.normal(size=3), float(rng.uniform(-9, 9)))).transformed(T) for _ in range(30)]
        objects += [from_pd(LinePD(rng.normal(size=3), rng.normal(size=3))).transformed(T) for _ in range(10)]
        self.assert_writes_like_reference(objects)

    def test_zero_offsets_with_negative_leading_entry(self):
        normals = [[-1, 0, 0], [0, -0.6, 0.8], [0, 0, -1], [-0.6, 0.8, 0], [0.6, -0.8, 0]] + AXES
        objects = [from_hesse(PlaneHesse(n, d)) for n in normals for d in (0.0, -0.0, 2.0)]
        # the same planes with their basis columns swapped, which flips the
        # normal from the basis: through the origin, some start negative
        objects += [GraffElement(el.A[:, ::-1], el.b0) for el in objects]
        assert any(to_hesse(el).d == 0.0 and np.cross(el.A[:, 0], el.A[:, 1])[0] < 0 for el in objects)
        self.assert_writes_like_reference(objects)


class TestNumberFields:
    """Coordinates and offsets must be JSON numbers of a size whose squares stay finite."""

    def rejected(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no overflow warning on the way to the error
            with pytest.raises(ScanFormatError) as err:
                scan_from_dict(document([entry]))
        return str(err.value)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (plane(["0", "0", "1"], 1.5), "objects[0].plane.normal must contain numbers only"),
            (plane([0, 0, 1], "1.5"), "objects[0].plane.d must be a number"),
            (line([0, 0, 1], [0, "2", 0]), "objects[0].line.point must contain numbers only"),
            ({**line([0, 0, 1], [0, 0, 0]), "centroid": ["1e3", 0, 0]}, "objects[0].centroid must contain numbers only"),
        ],
        ids=["normal", "d", "point", "centroid"],
    )
    def test_numeric_strings_rejected(self, entry, message):
        assert self.rejected(entry) == f"<scan>: {message}"

    @pytest.mark.parametrize(
        "entry, field",
        [
            (line([0, 0, 1], [1e308] * 3), "objects[0].line.point"),
            (line([0, 0, 1], [0, -2e150, 0]), "objects[0].line.point"),
            (line([10**400, 0, 0], [0, 0, 0]), "objects[0].line.direction"),
            (plane([0, 0, 1], 1e308), "objects[0].plane.d"),
            (plane([0, 0, 1], -(10**200)), "objects[0].plane.d"),
            ({**plane([0, 0, 1], 1.0), "centroid": [0, 0, 1e200]}, "objects[0].centroid"),
        ],
        ids=["point-1e308", "point-2e150", "direction-huge-int", "d-1e308", "d-huge-int", "centroid"],
    )
    def test_coordinates_whose_squares_overflow_rejected(self, entry, field):
        assert self.rejected(entry) == f"<scan>: {field} must not exceed 1e+150 in magnitude"

    def test_largest_accepted_coordinates_give_finite_distances(self):
        from graffassoc import internal_distance_matrix

        doc = document([line([0, 0, 1], [1e150, -1e150, 0]), line([1, 0, 0], [0, 1e150, -1e150]), plane([0.6, 0.8, 0], -1e150)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scan = scan_from_dict(doc)
            D = internal_distance_matrix(scan, 40.0)
        assert np.isfinite(D).all()

    def test_integers_and_floats_accepted(self):
        loaded, _ = assert_identical(document([line([0, 0, 1], [1, 2, 3]), plane([0, 1, 0], 2)]))
        assert loaded.b0.tolist() == [[1.0, 2.0, 0.0], [0.0, 2.0, 0.0]]


class TestSingleObjectConstructors:
    """from_pd, from_hesse and from_affine are the stacked pass at n = 1."""

    def test_match_reference(self):
        rng = np.random.default_rng(13)
        T = RigidTransform(rotation_about_axis([1.0, 2.0, -0.5], 0.7), np.array([3.0, -1.0, 2.0]))
        for trial in range(300):
            direction = AXES[trial % 6] if trial < 12 else rng.normal(size=3)
            ln = LinePD(direction, rng.uniform(-100, 100, 3))
            pl = PlaneHesse(direction, [0.0, -0.0, float(rng.uniform(-20, 20))][trial % 3])
            for el, ref in ((from_pd(ln), reference_from_pd(ln)), (from_hesse(pl), reference_from_hesse(pl))):
                assert same_bytes(el.A, ref.A) and same_bytes(el.b0, ref.b0), trial
                A = el.A + rng.normal(size=el.A.shape) * 1e-10
                b = rng.normal(size=3) * 10
                moved, ref_moved = GraffElement.from_affine(A, b), reference_from_affine(A, b)
                assert same_bytes(moved.A, ref_moved.A) and same_bytes(moved.b0, ref_moved.b0), trial
                assert same_bytes(el.transformed(T).A, reference_from_affine(T.R @ el.A, T.R @ el.b0 + T.t).A)
