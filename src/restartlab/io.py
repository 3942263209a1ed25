"""On-disk formats: instances, datasets, run-length files, models, reports.

Every file embeds a reproducibility header (format version, tool version,
invocation parameters, master seed) and nothing volatile, so identical
invocations produce byte-identical files.  Text formats carry the header as
leading '#' comment lines; JSON formats embed the same fields as keys.
All writers emit UTF-8 with LF line endings; write/read round-trips preserve
every value exactly.
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
from .policy import EmpiricalRTD

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


def _header_lines(kind: str, params: Optional[Dict], master_seed: Optional[int],
                  meta: Optional[Dict] = None) -> List[str]:
    lines = [
        f"# restartlab {kind} {FORMAT_VERSION}",
        f"# tool restartlab {__version__}",
        f"# params {json.dumps(params or {}, sort_keys=True)}",
        f"# master_seed {'null' if master_seed is None else int(master_seed)}",
    ]
    if meta is not None:
        lines.append(f"# meta {json.dumps(meta, sort_keys=True)}")
    return lines


def _parse_header(lines: Sequence[str], kind: str, path: str) -> Dict:
    """Parse leading '#' lines; unknown comment lines are ignored, and a
    known line that does not parse is a DataFormatError naming path."""
    out: Dict = {"params": {}, "master_seed": None, "meta": {}}
    for raw in lines:
        body = raw[1:].strip()
        try:
            if body.startswith("restartlab "):
                parts = body.split()
                if len(parts) >= 3:
                    if parts[1] != kind:
                        raise ValueError(f"expected a {kind} file, found {parts[1]!r}")
                    out["format_version"] = int(parts[2])
            elif body.startswith("params "):
                out["params"] = _json_object(body[len("params "):])
            elif body.startswith("master_seed "):
                tok = body[len("master_seed "):].strip()
                out["master_seed"] = None if tok == "null" else int(tok)
            elif body.startswith("meta "):
                out["meta"] = _json_object(body[len("meta "):])
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad header line {raw!r}: {exc}") from exc
    return out


def _json_object(text: str) -> Dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


def _split_comments(text: str) -> Tuple[List[str], List[str]]:
    comments, rest = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line.strip() == "" and not rest:
            continue
        else:
            rest.append(line)
    return comments, rest


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


# -- instance files ---------------------------------------------------------


def write_instance(
    path: str,
    square: PartialLatinSquare,
    params: Optional[Dict] = None,
    master_seed: Optional[int] = None,
) -> None:
    lines = _header_lines("instance", params, master_seed)
    lines.append(str(square.order))
    for row in square.cells:
        lines.append(" ".join("." if v is HOLE else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path: str) -> PartialLatinSquare:
    comments, rest = _split_comments(_read_text(path))
    _parse_header(comments, "instance", path)
    if not rest:
        raise DataFormatError(f"{path}: empty instance file")
    try:
        n = int(rest[0].strip())
    except ValueError as exc:
        raise DataFormatError(f"{path}: first line must be the order") from exc
    if len(rest) < 1 + n:
        raise DataFormatError(f"{path}: expected {n} rows, found {len(rest) - 1}")
    cells = []
    for i, line in enumerate(rest[1 : 1 + n]):
        toks = line.split()
        if len(toks) != n:
            raise DataFormatError(f"{path}: row {i + 1} has {len(toks)} tokens, expected {n}")
        row = []
        for t in toks:
            if t == ".":
                row.append(HOLE)
            else:
                try:
                    row.append(int(t))
                except ValueError as exc:
                    raise DataFormatError(f"{path}: bad token {t!r} in row {i + 1}") from exc
        cells.append(tuple(row))
    try:
        square = PartialLatinSquare(order=n, cells=tuple(cells))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    extra = next((line for line in rest[1 + n:] if line.strip()), None)
    if extra is not None:
        raise DataFormatError(f"{path}: line {extra!r} follows the last of the {n} rows")
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
    head = _header_lines("dataset", params, master_seed, full_meta)
    cols = list(dataset.columns) + list(TAIL_COLUMNS)
    rows = []
    for i in range(dataset.size):
        vals = [repr(float(v)) for v in dataset.X[i]]
        vals.append(str(int(dataset.runtime[i])))
        vals.append(SHORT if dataset.is_short[i] else LONG)
        vals.append("1" if dataset.censored[i] else "0")
        vals.append(repr(float(dataset.divisor[i])))
        rows.append(",".join(vals))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(head) + "\n")
        fh.write(",".join(cols) + "\n")
        if rows:
            fh.write("\n".join(rows) + "\n")


def read_dataset(path: str) -> Dataset:
    """Read every recorded row back; callers filter on .censored for learning."""
    comments, rest = _split_comments(_read_text(path))
    head = _parse_header(comments, "dataset", path)
    if not rest:
        raise DataFormatError(f"{path}: missing column header")
    reader = csv.reader(rest)
    cols = next(reader)
    if len(cols) < len(TAIL_COLUMNS) or tuple(cols[-4:]) != TAIL_COLUMNS:
        raise DataFormatError(
            f"{path}: last columns must be {','.join(TAIL_COLUMNS)}"
        )
    feat_cols = cols[:-4]
    X, runtime, is_short, censored, divisor, lines = [], [], [], [], [], []
    for ln, row in enumerate(reader, start=2):
        if not row:
            continue
        lines.append(ln)
        if len(row) != len(cols):
            raise DataFormatError(f"{path}: line {ln} has {len(row)} fields, expected {len(cols)}")
        try:
            X.append([float(v) for v in row[: len(feat_cols)]])
            runtime.append(int(row[-4]))
            lab = row[-3]
            if lab not in (SHORT, LONG):
                raise ValueError(f"bad label {lab!r}")
            is_short.append(lab == SHORT)
            if row[-2] not in ("0", "1"):
                raise ValueError(f"bad censored flag {row[-2]!r}")
            censored.append(row[-2] == "1")
            divisor.append(float(row[-1]))
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {ln}: {exc}") from exc
    meta = head.get("meta", {})
    median = meta.get("median")
    if median is None:
        raise DataFormatError(f"{path}: header carries no median")
    try:
        median = _finite_number(median)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad median in the header: {exc}") from exc
    try:
        runtime_arr = np.asarray(runtime, dtype=np.int64)
    except OverflowError as exc:
        raise DataFormatError(f"{path}: a runtime does not fit in 64 bits ({exc})") from exc
    X_arr = np.asarray(X, dtype=float).reshape(len(runtime), len(feat_cols))
    divisor_arr = np.asarray(divisor, dtype=float)
    finite = np.isfinite(X_arr).all(axis=1) & np.isfinite(divisor_arr)
    if not finite.all():
        raise DataFormatError(f"{path}: line {lines[int(finite.argmin())]}: a value is not finite")
    return Dataset(
        columns=feat_cols,
        X=X_arr,
        runtime=runtime_arr,
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
    arr = sorted(int(v) for v in lengths)
    head = _header_lines("rtd", params, master_seed, meta)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(head) + "\n")
        for v in arr:
            fh.write(f"{v}\n")


def read_provenance(path: str, kind: str) -> Dict:
    """The header of a `kind` file (params, master_seed, meta), as
    read_dataset's provenance holds it."""
    return _parse_header(_split_comments(_read_text(path))[0], kind, path)


def read_rtd(path: str) -> EmpiricalRTD:
    comments, rest = _split_comments(_read_text(path))
    _parse_header(comments, "rtd", path)
    lengths = []
    for ln, line in enumerate(rest, start=1):
        tok = line.strip()
        if not tok:
            continue
        try:
            lengths.append(int(tok))
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {ln}: bad run length {tok!r}") from exc
    if not lengths:
        raise DataFormatError(f"{path}: no run lengths")
    try:
        return EmpiricalRTD(lengths)
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


def _node_from_obj(obj: Dict, index: Dict[str, int]) -> TreeNode:
    if "feature" not in obj:
        return TreeNode(n_short=int(obj["n_short"]), n_long=int(obj["n_long"]))
    name = obj["feature"]
    if name not in index:
        raise DataFormatError(f"tree references unknown feature {name!r}")
    return TreeNode(
        n_short=int(obj["n_short"]),
        n_long=int(obj["n_long"]),
        feature=index[name],
        threshold=float(obj["threshold"]),
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
    obj = {
        "format": "restartlab model",
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "params": params or {},
        "master_seed": master_seed,
        "kappa": model.kappa,
        "training_median": model.training_median,
        "registry_hash": model.registry_hash,
        "columns": list(model.columns),
        "leaf_count": model.leaf_count,
        "tree": _node_to_obj(model.root, model.columns),
    }
    if extra:
        obj["extra"] = extra
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_model(path: str) -> DecisionTreeModel:
    obj = _read_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "restartlab model":
        raise DataFormatError(f"{path}: not a model file")
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
    obj = {
        "format": "restartlab report",
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "params": params or {},
        "master_seed": master_seed,
        "report": _jsonable(report),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_report(path: str) -> Dict:
    obj = _read_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "restartlab report":
        raise DataFormatError(f"{path}: not a report file")
    return obj
