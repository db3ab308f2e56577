"""JSON document formats: potential-outcome tables in, reports out.

Table document (one-based semantics, positional arrays):

    {
      "design": "rcb" | "ls",
      "treatments": T,
      "blocks": N,                 # rcb only
      "outcomes": [[[...]]],       # [block/row][plot/column][treatment]
      "technical_error_sd": 0.0,   # optional, default 0
      "name": "table1"             # optional
    }

Malformed documents raise ParseError with a diagnostic naming the offending
field (blocks/plots/columns reported one-based).  A top-level field not
shown above is refused by name, so a misspelt optional field cannot load
as its default.  Reports are emitted with every float at 17 significant
digits so they round-trip losslessly; an infinite F serializes as "inf"
and a degenerate (0/0) F as "degenerate".
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InvalidArgument, ParseError, _number
from .potential_outcomes import DesignKind, PotentialOutcomeTable, validate

_FLOAT_FORMAT = ".17g"
_FIELDS = ("design", "treatments", "blocks", "outcomes", "technical_error_sd", "name")
_SHOWN = 200  # characters of an offending value a diagnostic echoes at most
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel, _BRIEF.maxlist, _BRIEF.maxdict = 3, 8, 8
_BRIEF.maxstring = _BRIEF.maxlong = _BRIEF.maxother = 60


def load_table(source: str | Path | dict) -> PotentialOutcomeTable:
    """Read and validate a table document from a path or parsed dict;
    InvalidArgument, naming the type given, for anything else."""
    if isinstance(source, dict):
        doc = source
    elif not isinstance(source, (str, os.PathLike)):
        raise InvalidArgument(f"expected a path or a table document, got {type(source).__name__}")
    else:
        path = Path(source)
        try:
            with path.open("r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        except RecursionError:  # arrays or objects nested past the interpreter's stack
            raise ParseError(f"{path} is nested too deeply to read as JSON") from None
    if not isinstance(doc, dict):
        raise ParseError("table document must be a JSON object")
    return _table_from_document(doc)


def _require(doc: dict, field: str, kind: type, optional: bool = False) -> Any:
    if field not in doc:
        if optional:
            return None
        raise ParseError(f"{field}: required field is missing")
    value = doc[field]
    if kind in (int, float):
        if _number(value, integral=kind is int) is not value:
            expected = "an integer" if kind is int else "a number"
            raise ParseError(f"{field}: expected {expected}, got {_brief(value)}")
        return _float(value, field) if kind is float else int(value)
    if not isinstance(value, kind):
        raise ParseError(f"{field}: expected {kind.__name__}, got {_brief(value)}")
    return value


def _brief(value: Any) -> str:
    """repr(value) as a diagnostic echoes it: a short value in full, a long
    one cut to its first items (reprlib) and to _SHOWN characters, so that
    one bad row of a large document prints one short line."""
    text = _BRIEF.repr(value)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "..."


def _float(value, field: str) -> float:
    """A real number as a float; ParseError naming field past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{field}: integer too large for a float") from None


def _table_from_document(doc: dict) -> PotentialOutcomeTable:
    unknown = [field for field in doc if field not in _FIELDS]
    if unknown:
        named = ", ".join(map(_brief, unknown[:8]))
        if len(unknown) > 8:
            named += f" and {len(unknown) - 8} more"
        raise ParseError(f"unknown field(s) {named}; a table document has {', '.join(_FIELDS)}")
    design_raw = _require(doc, "design", str)
    try:
        design = DesignKind(design_raw)
    except ValueError:
        raise ParseError(f'design: must be "rcb" or "ls", got {_brief(design_raw)}') from None

    treatments = _require(doc, "treatments", int)
    if treatments < 2:
        raise ParseError(f"treatments: must be >= 2, got {treatments}")
    if design is DesignKind.RCB:
        blocks = _require(doc, "blocks", int)
        if blocks < 1:
            raise ParseError(f"blocks: must be >= 1, got {blocks}")
    else:
        if "blocks" in doc and doc["blocks"] != treatments:
            raise ParseError(
                f"blocks: a LS has no separate block count (got {_brief(doc['blocks'])})"
            )
        blocks = treatments

    outcomes = _require(doc, "outcomes", list)
    if len(outcomes) != blocks:
        label = "blocks" if design is DesignKind.RCB else "rows"
        raise ParseError(f"outcomes: expected {blocks} {label}, got {len(outcomes)}")
    parsed = []
    for i, row in enumerate(outcomes):
        if not isinstance(row, list) or len(row) != treatments:
            raise ParseError(
                f"outcomes, block/row {i + 1}: expected {treatments} "
                f"plots/columns, got {_brief(row)}"
            )
        parsed_row = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != treatments:
                raise ParseError(
                    f"outcomes, block/row {i + 1}, plot/column {j + 1}: expected "
                    f"{treatments} potential outcomes, got {_brief(cell)}"
                )
            values = []
            for k, value in enumerate(cell):
                field = f"outcomes, block/row {i + 1}, plot/column {j + 1}, treatment {k + 1}"
                if _number(value) is not value:
                    raise ParseError(f"{field}: expected a number, got {_brief(value)}")
                value = _float(value, field)
                if not math.isfinite(value):
                    raise ParseError(f"{field}: value must be finite")
                values.append(value)
            parsed_row.append(values)
        parsed.append(parsed_row)

    sd = _require(doc, "technical_error_sd", float, optional=True)
    if sd is None:
        sd = 0.0
    if sd < 0:
        raise ParseError(f"technical_error_sd: must be >= 0, got {sd}")
    name = _require(doc, "name", str, optional=True)

    table = PotentialOutcomeTable(
        design=design,
        outcomes=np.array(parsed, dtype=float),
        technical_error_sd=sd,
        name=name,
    )
    return validate(table)


def table_to_document(table: PotentialOutcomeTable) -> dict:
    """Inverse of load_table (round-trips to an equal document).  Raises
    InvalidArgument when table is not a PotentialOutcomeTable; its values
    are not checked."""
    if not isinstance(table, PotentialOutcomeTable):
        raise InvalidArgument(f"expected a PotentialOutcomeTable, got {type(table).__name__}")
    doc: dict[str, Any] = {"design": table.design.value}
    doc["treatments"] = table.num_treatments
    if table.design is DesignKind.RCB:
        doc["blocks"] = table.num_blocks
    doc["outcomes"] = table.outcomes.tolist()
    doc["technical_error_sd"] = table.technical_error_sd
    if table.name is not None:
        doc["name"] = table.name
    return doc


def _encode(value: Any, out: list[str], level: int) -> None:
    pad = "  " * level
    pad_in = pad + "  "
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            out.append('"degenerate"')
        elif math.isinf(value):
            out.append('"inf"' if value > 0 else '"-inf"')
        else:
            out.append(format(value, _FLOAT_FORMAT))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, np.ndarray):
        _encode(value.tolist(), out, level)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for idx, item in enumerate(value):
            out.append(pad_in)
            _encode(item, out, level + 1)
            out.append(",\n" if idx + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for idx, (key, item) in enumerate(items):
            out.append(pad_in + json.dumps(str(key)) + ": ")
            _encode(item, out, level + 1)
            out.append(",\n" if idx + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to a report")


def dumps_report(document: dict) -> str:
    """Serialize a report document with a two-space indent; floats carry 17
    significant digits."""
    out: list[str] = []
    _encode(document, out, 0)
    return "".join(out)


def report_document(
    operation: str,
    inputs: dict,
    payload: dict,
    seed: int | None = None,
) -> dict:
    """Assemble the common report envelope around an operation's outputs."""
    from . import __version__

    doc: dict[str, Any] = {
        "operation": operation,
        "engine_version": __version__,
        "inputs": inputs,
    }
    doc.update(payload)
    if seed is not None:
        doc["seed"] = seed
    return doc
