"""Problem documents (JSON in) and run records (NDJSON out).

A problem document carries the boundary vertices, the vertex weights and
optional solver options.  Unknown keys are rejected with the offending JSON
path so typos do not silently change a run.  Run records round-trip losslessly
and are written deterministically (sorted keys, full-precision floats, and a
timestamp taken from SOURCE_DATE_EPOCH rather than the wall clock).
"""

from __future__ import annotations

import json
import math
import os
import time

from .errors import DocumentError, _Record

_TOP_LEVEL_KEYS = {"vertices", "weights", "xg", "options"}


class SolverOptions(_Record):
    """Optional run settings, each mirrored by the CLI flag of the same name;
    None means "use the solver default"."""

    __slots__ = _fields = ("grid", "normalize_weights", "b4", "storage", "spend", "levels")

    def __init__(self, grid: int | None = None, normalize_weights: bool = False,
                 b4: float | None = None, storage: float | None = None,
                 spend: float | None = None, levels: tuple[float, ...] | None = None):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "normalize_weights", normalize_weights)
        object.__setattr__(self, "b4", b4)
        object.__setattr__(self, "storage", storage)
        object.__setattr__(self, "spend", spend)
        object.__setattr__(self, "levels", levels)


class ProblemDocument(_Record):
    """A parsed problem document; `options` None stands for `SolverOptions()`."""

    __slots__ = _fields = ("vertices", "weights", "xg", "options")

    def __init__(self, vertices: tuple[tuple[float, float], ...], weights: tuple[float, ...],
                 xg: float | None = None, options: SolverOptions | None = None):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "xg", xg)
        object.__setattr__(self, "options", SolverOptions() if options is None else options)


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"expected a number, got {value!r}", path=path)
    val = float(value)
    if not math.isfinite(val):
        raise DocumentError(f"expected a finite number, got {value!r}", path=path)
    return val


def positive_number(value, path: str) -> float:
    val = _require_number(value, path)
    if val <= 0.0:
        raise DocumentError(f"expected a positive number, got {value!r}", path=path)
    return val


def _positive_integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DocumentError(f"expected a positive integer, got {value!r}", path=path)
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise DocumentError(f"expected true or false, got {value!r}", path=path)
    return value


def _number_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise DocumentError(f"expected a non-empty list of numbers, got {value!r}", path=path)
    return tuple(_require_number(v, f"{path}[{i}]") for i, v in enumerate(value))


# The check each option value passes, whether it comes from a document key or
# from the CLI flag of the same name; a check returns the value it accepts.
OPTION_CHECKS = {
    "grid": _positive_integer,
    "normalize_weights": _boolean,
    "b4": _require_number,
    "storage": _require_number,
    "spend": _require_number,
    "levels": _number_list,
}


def _parse_pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(f"expected a [x, y] pair, got {value!r}", path=path)
    return (_require_number(value[0], path + "[0]"), _require_number(value[1], path + "[1]"))


def _parse_options(raw, path: str) -> SolverOptions:
    if not isinstance(raw, dict):
        raise DocumentError("options must be an object", path=path)
    for key in raw:
        if key not in OPTION_CHECKS:
            raise DocumentError(f"unknown key {key!r}", path=f"{path}.{key}")
    return SolverOptions(**{key: OPTION_CHECKS[key](value, f"{path}.{key}")
                            for key, value in raw.items()})


def parse_problem_document(text: str) -> ProblemDocument:
    """Parse a UTF-8 JSON problem document.

    Malformed JSON reports line and column; schema violations report the JSON
    path of the offending key.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object", path="$")
    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            raise DocumentError(f"unknown key {key!r}", path=f"$.{key}")
    if "vertices" not in raw or "weights" not in raw:
        raise DocumentError("document needs 'vertices' and 'weights'", path="$")
    verts_raw = raw["vertices"]
    if not isinstance(verts_raw, list) or len(verts_raw) not in (3, 4):
        raise DocumentError("vertices must list 3 or 4 coordinate pairs", path="$.vertices")
    vertices = tuple(
        _parse_pair(v, f"$.vertices[{i}]") for i, v in enumerate(verts_raw)
    )
    weights_raw = raw["weights"]
    if not isinstance(weights_raw, list) or len(weights_raw) != len(vertices):
        raise DocumentError(
            f"weights must list {len(vertices)} numbers (one per vertex)",
            path="$.weights",
        )
    weights = tuple(positive_number(w, f"$.weights[{i}]") for i, w in enumerate(weights_raw))
    xg = None
    if raw.get("xg") is not None:
        xg = positive_number(raw["xg"], "$.xg")
    options = _parse_options(raw.get("options", {}), "$.options")
    return ProblemDocument(vertices=vertices, weights=weights, xg=xg, options=options)


# ------------------------------------------------------------------ #
# Run records
# ------------------------------------------------------------------ #

class RunRecord(_Record):
    """One run: its command, its inputs, outputs and diagnostics as JSON-ready
    dicts, and its `run_timestamp`."""

    __slots__ = _fields = ("command", "inputs", "outputs", "diagnostics", "timestamp")

    def __init__(self, command: str, inputs: dict, outputs: dict, diagnostics: dict,
                 timestamp: str):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "diagnostics", diagnostics)
        object.__setattr__(self, "timestamp", timestamp)


# The seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the years of
# four digits
_FIRST_SECOND, _LAST_SECOND = -62135596800, 253402300799


def run_timestamp() -> str:
    """Deterministic UTC timestamp, `YYYY-MM-DDThh:mm:ssZ`: SOURCE_DATE_EPOCH
    seconds, so identical runs emit identical records.  Unset, not an
    integer or outside the years 1 to 9999, it falls back to 0."""
    try:
        epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    except ValueError:
        epoch = 0
    if not _FIRST_SECOND <= epoch <= _LAST_SECOND:
        epoch = 0
    t = time.gmtime(epoch)
    return (f"{t.tm_year:04d}-{t.tm_mon:02d}-{t.tm_mday:02d}"
            f"T{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}Z")


def _jsonable(value):
    """Recursively convert to JSON-safe values; non-finite floats become null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def record_to_json(record: RunRecord) -> str:
    payload = {
        "command": record.command,
        "inputs": _jsonable(record.inputs),
        "outputs": _jsonable(record.outputs),
        "diagnostics": _jsonable(record.diagnostics),
        "timestamp": record.timestamp,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def record_from_json(line: str) -> RunRecord:
    raw = json.loads(line)
    return RunRecord(
        command=raw["command"],
        inputs=raw["inputs"],
        outputs=raw["outputs"],
        diagnostics=raw["diagnostics"],
        timestamp=raw["timestamp"],
    )
