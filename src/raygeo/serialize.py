"""JSON wire formats for every value the library exchanges.

Encodings (stable and documented; witnesses, reports and matrices are
written only):

* complex scalar      ``[re, im]``
* vector              ``[[re, im], ...]``
* matrix              ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``  (row-major)
* Ray                 ``{"dim": d, "rep": <vector>}``
* Subspace            ``{"dim": d, "basis": [<vector>, ...]}``
* interference witness ``{"x", "alpha_basis", "beta_basis", "p_values", "margin"}``
* LawReport           ``{"law_id", "pass", "negative_control", "trials_run",
                        "trials_skipped", "worst_residual", "tolerance", "seed",
                        "stream_version", "dim_range", "counterexample"}``

Decoding re-canonicalizes rays and re-orthonormalizes subspace bases,
so a round trip restores the library invariants.  Serialized law
reports intentionally omit wall-clock timing: reports of two runs with
identical configuration must be byte-identical.  They are strict JSON:
a non-finite number anywhere in a report (a failing law's
``worst_residual``, say) is written as one of the strings ``"NaN"``,
``"Infinity"`` and ``"-Infinity"``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .linalg import check_count
from .rays import Ray, Subspace, ray_from
from .sampling import STREAM_VERSION
from .superposition import SuperpositionSpec


def _field(data, key: str, what: str):
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{what} lacks the field {key!r}")
    return data[key]


def _list(data, what: str) -> list:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array, got {type(data).__name__}")
    return data


def _number(data, what: str) -> float:
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ValueError(f"{what} must be a number, got {type(data).__name__}")
    try:
        return float(data)
    except OverflowError:
        raise ValueError(f"{what} is out of the float range") from None


def complex_to_json(c) -> list[float]:
    c = complex(c)
    return [c.real, c.imag]


def complex_from_json(data) -> complex:
    if not isinstance(data, list) or len(data) != 2:
        raise ValueError(f"a complex number must be a pair [re, im], got {data!r}")
    return complex(_number(data[0], "re"), _number(data[1], "im"))


def vec_to_json(v) -> list[list[float]]:
    v = np.asarray(v, dtype=np.complex128)
    return [[float(c.real), float(c.imag)] for c in v]


def vec_from_json(data) -> np.ndarray:
    entries = _list(data, "a vector")
    return np.array([complex_from_json(p) for p in entries], dtype=np.complex128)


def mat_to_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "entries": vec_to_json(m.reshape(-1)),
    }


def ray_to_json(x: Ray) -> dict:
    return {"dim": x.dim, "rep": vec_to_json(x.rep)}


def ray_from_json(data) -> Ray:
    dim = check_count(_field(data, "dim", "a ray"), "dim")
    rep = vec_from_json(_field(data, "rep", "a ray"))
    if len(rep) != dim:
        raise ValueError("ray dim does not match representative length")
    return ray_from(rep)


def subspace_to_json(a: Subspace) -> dict:
    return {"dim": a.dim, "basis": [vec_to_json(row) for row in a.basis]}


def subspace_from_json(data) -> Subspace:
    dim = check_count(_field(data, "dim", "a subspace"), "dim")
    vectors = [vec_from_json(row) for row in _list(_field(data, "basis", "a subspace"), "basis")]
    for v in vectors:
        if len(v) != dim:
            raise ValueError("subspace dim does not match basis vector length")
    return Subspace.from_vectors(vectors, dim=dim)


def superposition_spec_from_json(data) -> SuperpositionSpec:
    return SuperpositionSpec(
        y=ray_from_json(_field(data, "y", "a superposition spec")),
        z=ray_from_json(_field(data, "z", "a superposition spec")),
        r=_number(_field(data, "r", "a superposition spec"), "r"),
    )


def witness_to_json(w) -> dict:
    """Interference-search witness wire format."""
    return {
        "x": ray_to_json(w.x),
        "alpha_basis": subspace_to_json(w.alpha),
        "beta_basis": subspace_to_json(w.beta),
        "p_values": {
            "p_x_beta": w.p_x_beta,
            "p_beta_x_alpha": w.p_bx_alpha,
            "p_alpha_beta_x_beta": w.p_abx_beta,
        },
        "margin": w.nonsquared_excess,
        "squared_margin": w.squared_margin,
        "trial_index": w.trial_index,
    }


def law_report_to_json(report) -> dict:
    """LawReport wire format (no timing: must be run-invariant)."""
    return {
        "law_id": report.law_id,
        "pass": report.passed,
        "negative_control": report.negative_control,
        "trials_run": report.trials_run,
        "trials_skipped": report.trials_skipped,
        "worst_residual": report.worst_residual,
        "tolerance": report.tolerance,
        "seed": report.seed,
        "stream_version": STREAM_VERSION,
        "dim_range": list(report.dim_range),
        "counterexample": report.counterexample,
    }


_NONFINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _finite(value):
    """``value`` with every non-finite float replaced by its string name."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else _NONFINITE[value]
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def dumps_reports(reports) -> str:
    """Canonical strict-JSON text for a list of law reports (deterministic)."""
    rows = [_finite(law_report_to_json(r)) for r in reports]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def to_jsonable(value):
    """JSON-ready data for one row of a law's instance stack: a vector
    or matrix (a numpy array of ndim 1 or 2), a numpy scalar, or the
    string of a block's ``error`` column.

    Raises
    ------
    TypeError
        For any other value.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 1:
            return vec_to_json(value)
        if value.ndim == 2:
            return mat_to_json(value)
        raise TypeError(f"cannot serialize array of ndim {value.ndim}")
    if isinstance(value, str):
        return str(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return complex_to_json(complex(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")
