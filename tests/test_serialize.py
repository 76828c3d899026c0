"""Wire-format round trips and canonical report serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raygeo import RayGeoError, Subspace, ray_from
from raygeo.morphisms import RegularMap
from raygeo import serialize


class TestScalarsVectors:
    def test_complex_pair(self):
        assert serialize.complex_to_json(1 - 2j) == [1.0, -2.0]
        assert serialize.complex_from_json([1.0, -2.0]) == 1 - 2j

    def test_vector_roundtrip(self):
        v = np.array([1.0, 0.5j, -2.0 + 0.25j])
        back = serialize.vec_from_json(serialize.vec_to_json(v))
        np.testing.assert_allclose(back, v)

    def test_matrix_roundtrip_row_major(self):
        m = np.array([[1.0, 2.0j], [3.0, 4.0]])
        data = serialize.mat_to_json(m)
        assert data["rows"] == 2 and data["cols"] == 2
        assert data["entries"][1] == [0.0, 2.0]  # row-major order
        np.testing.assert_allclose(serialize.mat_from_json(data), m)

    def test_matrix_count_validated(self):
        with pytest.raises(ValueError):
            serialize.mat_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


class TestRaySubspace:
    def test_ray_roundtrip_recanonicalizes(self):
        x = ray_from([1.0, 1.0j])
        data = serialize.ray_to_json(x)
        # garble the stored representative by a phase: decode must recanonicalize
        rep = serialize.vec_from_json(data["rep"]) * np.exp(0.9j)
        garbled = {"dim": data["dim"], "rep": serialize.vec_to_json(rep)}
        back = serialize.ray_from_json(garbled)
        np.testing.assert_allclose(back.rep, x.rep, atol=1e-12)

    def test_subspace_roundtrip_reorthonormalizes(self):
        a = Subspace.from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        data = serialize.subspace_to_json(a)
        data["basis"].append(data["basis"][0])  # redundant vector on the wire
        back = serialize.subspace_from_json(data)
        assert back.rank == a.rank
        gram = back.basis @ back.basis.conj().T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            serialize.ray_from_json({"dim": 3, "rep": [[1.0, 0.0]]})


class TestMaps:
    def test_linear_map_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        f = RegularMap(m)
        back = serialize.regular_map_from_json(serialize.linear_map_to_json(f))
        np.testing.assert_allclose(back.matrix, m)

    def test_shape_mismatch_rejected(self):
        data = {"dim_in": 3, "dim_out": 2, "matrix": serialize.mat_to_json(np.eye(2))}
        with pytest.raises(ValueError):
            serialize.regular_map_from_json(data)


class TestSuperpositionSpec:
    def test_from_json(self):
        data = {
            "y": {"dim": 2, "rep": [[1.0, 0.0], [0.0, 0.0]]},
            "z": {"dim": 2, "rep": [[1.0, 0.0], [1.0, 0.0]]},
            "r": 0.5,
        }
        spec = serialize.superposition_spec_from_json(data)
        assert spec.r == 0.5
        assert spec.y.dim == 2


_numbers = st.integers(-1, 3) | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["dim", "rep", "basis", "rows", "cols", "entries", "matrix",
                         "dim_in", "dim_out", "y", "z", "r"]),
        inner,
        max_size=6,
    ),
    max_leaves=16,
)
_DECODERS = [
    serialize.vec_from_json,
    serialize.mat_from_json,
    serialize.ray_from_json,
    serialize.subspace_from_json,
    serialize.superposition_spec_from_json,
    serialize.regular_map_from_json,
]


@settings(max_examples=300, deadline=None)
@given(data=_json, which=st.integers(0, len(_DECODERS) - 1))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_decoders_refuse_malformed_data_with_value_error(data, which):
    """A decoder returns a value, or raises ValueError (malformed) or a
    RayGeoError (a domain precondition); never TypeError or IndexError."""
    try:
        _DECODERS[which](data)
    except (ValueError, RayGeoError):
        pass


class TestReports:
    def test_reports_are_deterministic_and_timing_free(self):
        from raygeo import GeneratorSpec, run_law

        gen = GeneratorSpec(dims=(2, 3), trials_per_dim=20, seed=5)
        a = run_law("principle.triviality", gen)
        b = run_law("principle.triviality", gen)
        ja = serialize.dumps_reports([a])
        jb = serialize.dumps_reports([b])
        assert ja == jb
        payload = json.loads(ja)[0]
        assert "elapsed" not in json.dumps(payload)
        assert payload["law_id"] == "principle.triviality"
        assert payload["pass"] is True

    def test_reports_are_strict_json_with_stream_version(self):
        from raygeo import LawReport
        from raygeo.sampling import STREAM_VERSION

        report = LawReport(
            law_id="some.law", passed=False, negative_control=False, trials_run=2,
            trials_skipped=0, worst_residual=math.inf, tolerance=1e-10, seed=1,
            dim_range=(2,), elapsed_ms=0.0,
            counterexample={"dim": 2, "trial": 0, "residual": math.nan, "values": [-math.inf, 1.5]},
        )
        text = serialize.dumps_reports([report])
        row = json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name}"))[0]
        assert row["worst_residual"] == "Infinity"
        assert row["counterexample"]["residual"] == "NaN"
        assert row["counterexample"]["values"] == ["-Infinity", 1.5]
        assert row["stream_version"] == STREAM_VERSION

    def test_witness_schema(self):
        from raygeo import search_nonsquared_counterexample

        w = search_nonsquared_counterexample(seed=42, budget=1000)
        data = serialize.witness_to_json(w)
        assert set(data) >= {"x", "alpha_basis", "beta_basis", "p_values", "margin"}
        assert math.isclose(data["margin"], w.nonsquared_excess)


class TestToJsonable:
    def test_dispatch(self):
        # the rows of a block's instance stacks, the error column included
        stacks = {
            "x": np.array([[1.0, 0.0], [0.0, 1.0j]]),
            "q": np.eye(2, dtype=complex)[np.newaxis].repeat(2, axis=0),
            "n": np.array([2.5, 1.0]),
            "k": np.array([3, 4]),
            "ok": np.array([True, False]),
            "c": np.array([1.0j, 2.0]),
            "error": np.full(2, "RuntimeError: boom"),
        }
        out = {name: serialize.to_jsonable(stack[1]) for name, stack in stacks.items()}
        assert out["x"] == [[0.0, 0.0], [0.0, 1.0]]
        assert out["q"] == serialize.mat_to_json(np.eye(2))
        assert out["n"] == 1.0 and type(out["n"]) is float
        assert out["k"] == 4 and type(out["k"]) is int
        assert out["ok"] is False
        assert out["c"] == [2.0, 0.0]
        assert out["error"] == "RuntimeError: boom" and type(out["error"]) is str
        json.dumps(out)  # must be JSON-clean

    def test_rejects_unknown(self):
        # library objects, containers and None are no rows of an instance stack
        for value in (object(), None, {"a": 1}, [1.0], ray_from([1.0, 0.0]), np.zeros((1, 1, 1))):
            with pytest.raises(TypeError):
                serialize.to_jsonable(value)
