"""On-disk formats: instances, datasets, run-length files, models, reports.

Every file embeds a reproducibility header (format version, tool version,
invocation parameters, master seed) and nothing volatile, so identical
invocations produce byte-identical files.  Text formats carry the header as
leading '#' comment lines and have one reader and one writer
(_read_headed, _write_headed); an error about a body line names its 1-based
number in the file.  JSON formats embed the same fields as keys of one
envelope (_read_envelope, _write_envelope).  All writers emit UTF-8 with LF
line endings; write/read round-trips preserve every value exactly.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .latin import HOLE, PartialLatinSquare
from .learn import SHORT, LONG, Dataset, DecisionTreeModel, TreeNode
from .policy import MAX_LENGTH, EmpiricalRTD

FORMAT_VERSION = 1

TAIL_COLUMNS = ("runtime", "label", "censored", "divisor")


class DataFormatError(ValueError):
    """A file failed to parse or violated its format contract."""


def _read_text(path: str, size: int = -1) -> str:
    """The file's text (its first size characters, if size >= 0); a file
    that is not UTF-8 is a DataFormatError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(size)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _finite_number(value) -> float:
    """value as a float when it is a finite JSON number (not a bool, a
    string or NaN/Infinity), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ValueError("an integer too large for a float") from exc
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _read_headed(path: str, kind: str) -> Tuple[Dict, List[Tuple[int, str]]]:
    """The header of a `kind` text file (params, master_seed, meta and the
    format_version) and its body: every line that is not a '#' line, from
    the first that is not blank, as (1-based number in the file, line).
    Unknown '#' lines are ignored; a known one that does not parse is a
    DataFormatError naming path."""
    head: Dict = {"params": {}, "master_seed": None, "meta": {}}
    body: List[Tuple[int, str]] = []
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()  # the end of the last line, not a line
    for ln, line in enumerate(lines, start=1):
        if not line.startswith("#"):
            if body or line.strip():
                body.append((ln, line))
            continue
        key, _, value = line[1:].strip().partition(" ")
        try:
            if key == "restartlab" and len(value.split()) >= 2:
                found, version = value.split()[:2]
                if found != kind:
                    raise ValueError(f"expected a {kind} file, found {found!r}")
                head["format_version"] = int(version)
            elif key in ("params", "meta") and value:
                head[key] = json.loads(value)
                if not isinstance(head[key], dict):
                    raise ValueError("not a JSON object")
            elif key == "master_seed" and value:
                head[key] = None if value.strip() == "null" else int(value)
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad header line {line!r}: {exc}") from exc
    return head, body


def _write_headed(path: str, kind: str, body: Sequence[str], params: Optional[Dict],
                  master_seed: Optional[int], meta: Optional[Dict] = None) -> None:
    """Write a `kind` text file: its '#' header lines, then the body lines."""
    lines = [
        f"# restartlab {kind} {FORMAT_VERSION}",
        f"# tool restartlab {__version__}",
        f"# params {json.dumps(params or {}, sort_keys=True)}",
        f"# master_seed {'null' if master_seed is None else int(master_seed)}",
    ]
    if meta is not None:
        lines.append(f"# meta {json.dumps(meta, sort_keys=True)}")
    lines.extend(body)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def _read_envelope(path: str, *kinds: str) -> Dict:
    """The JSON object of a file of one of `kinds`; any other content is a
    DataFormatError naming path (and the kind, when there is one)."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or obj.get("format") not in [f"restartlab {k}" for k in kinds]:
        raise DataFormatError(f"{path}: not a {kinds[0] if len(kinds) == 1 else 'restartlab'} file")
    return obj


def _write_envelope(path: str, kind: str, params: Optional[Dict],
                    master_seed: Optional[int], body: Dict) -> None:
    """Write a `kind` JSON file: the envelope's fields, then body's."""
    obj = {
        "format": f"restartlab {kind}",
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "params": params or {},
        "master_seed": master_seed,
        **body,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- instance files ---------------------------------------------------------


def write_instance(
    path: str,
    square: PartialLatinSquare,
    params: Optional[Dict] = None,
    master_seed: Optional[int] = None,
) -> None:
    rows = [" ".join("." if v is HOLE else str(v) for v in row) for row in square.cells]
    _write_headed(path, "instance", [str(square.order), *rows], params, master_seed)


def read_instance(path: str) -> PartialLatinSquare:
    _, body = _read_headed(path, "instance")
    if not body:
        raise DataFormatError(f"{path}: empty instance file")
    try:
        n = int(body[0][1].strip())
    except ValueError as exc:
        raise DataFormatError(f"{path}: first line must be the order") from exc
    if len(body) < 1 + n:
        raise DataFormatError(f"{path}: expected {n} rows, found {len(body) - 1}")
    cells = []
    for i, (ln, line) in enumerate(body[1 : 1 + n], start=1):
        toks = line.split()
        if len(toks) != n:
            raise DataFormatError(
                f"{path}: line {ln}: row {i} has {len(toks)} tokens, expected {n}"
            )
        row = []
        for t in toks:
            try:
                row.append(HOLE if t == "." else int(t))
                if row[-1] is not HOLE and not 1 <= row[-1] <= n:
                    raise ValueError
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: line {ln}: bad token {t!r} in row {i}, expected 1..{n} or '.'"
                ) from exc
        cells.append(tuple(row))
    try:
        square = PartialLatinSquare(order=n, cells=tuple(cells))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    for ln, line in body[1 + n:]:
        if line.strip():
            raise DataFormatError(f"{path}: line {ln}: {line!r} follows the last of the {n} rows")
    return square


# -- dataset files ----------------------------------------------------------


def write_dataset(
    path: str,
    dataset: Dataset,
    params: Optional[Dict] = None,
    master_seed: Optional[int] = None,
    meta: Optional[Dict] = None,
) -> None:
    """CSV of one row per recorded run; censored rows carry a set flag."""
    full_meta = dict(meta or {})
    full_meta["median"] = dataset.median
    lines = [",".join(list(dataset.columns) + list(TAIL_COLUMNS))]
    for i in range(dataset.size):
        vals = [repr(float(v)) for v in dataset.X[i]]
        vals.append(str(int(dataset.runtime[i])))
        vals.append(SHORT if dataset.is_short[i] else LONG)
        vals.append("1" if dataset.censored[i] else "0")
        vals.append(repr(float(dataset.divisor[i])))
        lines.append(",".join(vals))
    _write_headed(path, "dataset", lines, params, master_seed, full_meta)


def read_dataset(path: str) -> Dataset:
    """Read every recorded row back; callers filter on .censored for learning."""
    head, body = _read_headed(path, "dataset")
    if not body:
        raise DataFormatError(f"{path}: missing column header")
    reader = csv.reader(line for _, line in body)
    cols = next(reader)
    if len(cols) < len(TAIL_COLUMNS) or tuple(cols[-4:]) != TAIL_COLUMNS:
        raise DataFormatError(
            f"{path}: line {body[0][0]}: last columns must be {','.join(TAIL_COLUMNS)}"
        )
    feat_cols = cols[:-4]
    X, runtime, is_short, censored, divisor, lines = [], [], [], [], [], []
    for row in reader:
        if not row:
            continue
        ln = body[reader.line_num - 1][0]
        lines.append(ln)
        if len(row) != len(cols):
            raise DataFormatError(f"{path}: line {ln} has {len(row)} fields, expected {len(cols)}")
        try:
            X.append([float(v) for v in row[: len(feat_cols)]])
            runtime.append(int(row[-4]))
            if not 0 <= runtime[-1] < 2**63:
                raise ValueError(f"runtime {row[-4]} is negative or does not fit in 64 bits")
            lab = row[-3]
            if lab not in (SHORT, LONG):
                raise ValueError(f"bad label {lab!r}")
            is_short.append(lab == SHORT)
            if row[-2] not in ("0", "1"):
                raise ValueError(f"bad censored flag {row[-2]!r}")
            censored.append(row[-2] == "1")
            divisor.append(float(row[-1]))
            if divisor[-1] <= 0:
                raise ValueError(f"divisor {row[-1]} is not positive")
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {ln}: {exc}") from exc
    median = head["meta"].get("median")
    if median is None:
        raise DataFormatError(f"{path}: header carries no median")
    try:
        median = _finite_number(median)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad median in the header: {exc}") from exc
    X_arr = np.asarray(X, dtype=float).reshape(len(runtime), len(feat_cols))
    divisor_arr = np.asarray(divisor, dtype=float)
    finite = np.isfinite(X_arr).all(axis=1) & np.isfinite(divisor_arr)
    if not finite.all():
        raise DataFormatError(f"{path}: line {lines[int(finite.argmin())]}: a value is not finite")
    return Dataset(
        columns=feat_cols,
        X=X_arr,
        runtime=np.asarray(runtime, dtype=np.int64),
        is_short=np.asarray(is_short, dtype=bool),
        censored=np.asarray(censored, dtype=bool),
        divisor=divisor_arr,
        median=median,
        provenance=head,
    )


# -- run-length distribution files ------------------------------------------


def write_rtd(
    path: str,
    lengths: Sequence[int],
    params: Optional[Dict] = None,
    master_seed: Optional[int] = None,
    meta: Optional[Dict] = None,
) -> None:
    _write_headed(path, "rtd", [str(v) for v in sorted(int(v) for v in lengths)],
                  params, master_seed, meta)


def read_rtd(path: str) -> EmpiricalRTD:
    """The run lengths, with the file's header as their provenance."""
    head, body = _read_headed(path, "rtd")
    lengths = []
    for ln, line in body:
        tok = line.strip()
        if not tok:
            continue
        try:
            lengths.append(int(tok))
            if not 0 <= lengths[-1] <= MAX_LENGTH:
                raise ValueError
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: line {ln}: bad run length {tok!r}, expected a whole number in 0..2**53"
            ) from exc
    if not lengths:
        raise DataFormatError(f"{path}: no run lengths")
    try:
        return EmpiricalRTD(lengths, provenance=head)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# -- model files -------------------------------------------------------------


def _node_to_obj(node: TreeNode, columns: Sequence[str]) -> Dict:
    if node.is_leaf:
        return {"n_short": node.n_short, "n_long": node.n_long}
    return {
        "feature": columns[node.feature],
        "threshold": node.threshold,
        "n_short": node.n_short,
        "n_long": node.n_long,
        "left": _node_to_obj(node.left, columns),
        "right": _node_to_obj(node.right, columns),
    }


def _count(value) -> int:
    """value when it is a non-negative JSON integer (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{value!r} is not a count")
    return value


def _node_from_obj(obj: Dict, index: Dict[str, int]) -> TreeNode:
    counts = {"n_short": _count(obj["n_short"]), "n_long": _count(obj["n_long"])}
    if "feature" not in obj:
        return TreeNode(**counts)
    name = obj["feature"]
    if name not in index:
        raise DataFormatError(f"tree references unknown feature {name!r}")
    return TreeNode(
        **counts,
        feature=index[name],
        threshold=_finite_number(obj["threshold"]),
        left=_node_from_obj(obj["left"], index),
        right=_node_from_obj(obj["right"], index),
    )


def write_model(
    path: str,
    model: DecisionTreeModel,
    params: Optional[Dict] = None,
    master_seed: Optional[int] = None,
    extra: Optional[Dict] = None,
) -> None:
    body = {
        "kappa": model.kappa,
        "training_median": model.training_median,
        "registry_hash": model.registry_hash,
        "columns": list(model.columns),
        "leaf_count": model.leaf_count,
        "tree": _node_to_obj(model.root, model.columns),
    }
    if extra:
        body["extra"] = extra
    _write_envelope(path, "model", params, master_seed, body)


def read_model(path: str) -> DecisionTreeModel:
    obj = _read_envelope(path, "model")
    try:
        columns = list(obj["columns"])
        index = {name: j for j, name in enumerate(columns)}
        root = _node_from_obj(obj["tree"], index)
        med = obj.get("training_median")
        return DecisionTreeModel(
            root=root,
            columns=columns,
            kappa=_finite_number(obj["kappa"]),
            training_median=None if med is None else _finite_number(med),
            registry_hash=obj.get("registry_hash"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model: {exc!r}") from exc


# -- report files ------------------------------------------------------------


def _jsonable(value):
    """Recursively make a report JSON-safe; infinities become the string 'inf'."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def write_report(
    path: str,
    report: Dict,
    params: Optional[Dict] = None,
    master_seed: Optional[int] = None,
) -> None:
    _write_envelope(path, "report", params, master_seed, {"report": _jsonable(report)})


def read_report(path: str) -> Dict:
    return _read_envelope(path, "report")
