"""CSV/JSON persistence for ensembles, toy runs, and analysis reports.

All writers are byte-deterministic: fixed headers, ASCII outcome tokens,
sorted JSON keys, and no timestamps, so identical (seed, config) inputs
reproduce identical files.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .engine import OUTCOMES, Trials
from .qcore import BellOutcome
from .toys import RPS_CHOICES, RPS_VERDICTS

ENSEMBLE_HEADER = ["trial_id", "a", "b", "A", "B", "c_outcome", "heralded"]
TOY_HEADER = ["trial_id", "a", "b", "A", "B", "lambda_A", "lambda_B", "accepted"]
RPS_HEADER = ["trial_id", "alice", "bob", "verdict"]

ABSENT_TOKEN = "absent"


def outcome_token(outcome: BellOutcome | None) -> str:
    return ABSENT_TOKEN if outcome is None else outcome.value


_SETTING_TOKENS = {0: "0", 1: "1"}
_OUTCOME_TOKENS = {1: "1", -1: "-1"}
_BOOL_TOKENS = {False: "false", True: "true"}
# The token of each value a column may hold, used to write it and to read it
# back; trial_id is written in decimal. c_outcome -1 means C was off.
_CSV_TOKENS = {
    "a": _SETTING_TOKENS,
    "b": _SETTING_TOKENS,
    "A": _OUTCOME_TOKENS,
    "B": _OUTCOME_TOKENS,
    "lambda_A": _OUTCOME_TOKENS,
    "lambda_B": _OUTCOME_TOKENS,
    "c_outcome": dict(zip(range(-1, len(OUTCOMES)), map(outcome_token, (None,) + OUTCOMES))),
    "heralded": _BOOL_TOKENS,
    "accepted": _BOOL_TOKENS,
    "alice": dict(enumerate(c.value for c in RPS_CHOICES)),
    "bob": dict(enumerate(c.value for c in RPS_CHOICES)),
    "verdict": dict(enumerate(v.value for v in RPS_VERDICTS)),
}


def _text(trials: Trials, name: str) -> list:
    """A column as CSV fields, through its token table or in decimal; empty
    when the table lacks the column (the collider toy's lambda pair). Each
    distinct value is formatted once, then spread over its rows."""
    if name not in trials.columns:
        return [""] * len(trials)
    values, rows = np.unique(trials[name], return_inverse=True)
    tokens = _CSV_TOKENS.get(name)
    text = [str(v) if tokens is None else tokens[v] for v in values.tolist()]
    return np.array(text, dtype=object)[rows].tolist()


def _write_csv(path: str | Path, header: list[str], trials: Trials) -> None:
    lines = [",".join(header), *map(",".join, zip(*(_text(trials, name) for name in header)))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ensemble_csv(path: str | Path, ensemble: Trials) -> None:
    _write_csv(path, ENSEMBLE_HEADER, ensemble)


def write_toy_csv(path: str | Path, trials: Trials) -> None:
    _write_csv(path, TOY_HEADER, trials)


def write_rps_csv(path: str | Path, trials: Trials) -> None:
    _write_csv(path, RPS_HEADER, trials)


# Rows decoded at a time when reading a CSV back; bounds the reader's memory.
READ_CHUNK_ROWS = 4096


def _reject_rows(path, first_line: int, bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise ValueError(f"{path}, line {first_line + int(np.argmax(bad))}: {message}")


def _decode_rows(path, first_line: int, rows: list, last_id: int) -> dict[str, np.ndarray]:
    """Columns of the ensemble CSV rows that start at line ``first_line``;
    ``last_id`` is the trial_id of the row before them, -1 for none."""
    width = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    _reject_rows(path, first_line, width != len(ENSEMBLE_HEADER),
                 f"expected {len(ENSEMBLE_HEADER)} fields")
    fields = np.array(rows, dtype=str).reshape(len(rows), len(ENSEMBLE_HEADER))
    text = dict(zip(ENSEMBLE_HEADER, fields.T))
    ids = text["trial_id"]
    _reject_rows(path, first_line, ~np.char.isdigit(ids) | (np.char.str_len(ids) > 18),
                 "trial_id is not an integer in [0, 10**18)")
    ids = ids.astype(np.int64)
    _reject_rows(path, first_line, ids <= np.r_[last_id, ids[:-1]],
                 "trial_id not above the previous row's")
    columns = {"trial_id": ids}
    for name in ENSEMBLE_HEADER[1:]:
        decode = {token: value for value, token in _CSV_TOKENS[name].items()}
        _reject_rows(path, first_line, ~np.isin(text[name], list(decode)),
                     f"{name} is none of {list(decode)}")
        # Each distinct token is looked up once, then spread over its rows.
        tokens, rows_of = np.unique(text[name], return_inverse=True)
        values = np.array([decode[token] for token in tokens.tolist()])
        columns[name] = values.astype(bool if name == "heralded" else np.int8)[rows_of]
    return columns


def read_ensemble_csv(path: str | Path) -> Trials:
    """Read an ensemble CSV back into a table, READ_CHUNK_ROWS rows at a
    time. A row with the wrong field count, a token outside its column's
    table (such as a setting outside {0, 1} or an outcome outside {+1, -1}),
    or a trial_id not above the previous row's raises ValueError naming its
    line."""
    chunks = []
    last_id = -1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ENSEMBLE_HEADER:
            raise ValueError(f"unexpected ensemble CSV header: {header}")
        while True:
            rows = list(itertools.islice(reader, READ_CHUNK_ROWS))
            chunks.append(_decode_rows(path, 2 + READ_CHUNK_ROWS * len(chunks), rows, last_id))
            if len(rows) < READ_CHUNK_ROWS:
                break
            last_id = int(chunks[-1]["trial_id"][-1])
    return Trials({name: np.concatenate([c[name] for c in chunks]) for name in ENSEMBLE_HEADER})


def ensemble_json_payload(ensemble: Trials, meta: dict) -> dict:
    columns = [ensemble[name].tolist() for name in ("trial_id", "a", "b", "A", "B", "heralded")]
    return {
        "meta": dict(meta),
        "records": [
            {"trial_id": i, "a": a, "b": b, "A": A, "B": B, "c_outcome": c, "heralded": h}
            for i, a, b, A, B, h, c in zip(*columns, _text(ensemble, "c_outcome"))
        ],
    }


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(payload))
