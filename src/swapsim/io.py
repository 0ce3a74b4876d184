"""CSV/JSON persistence for ensembles, toy runs, and analysis reports.

All writers are byte-deterministic: fixed headers, ASCII outcome tokens,
sorted JSON keys, ``\n`` line ends and no timestamps, so identical (seed,
config) inputs reproduce identical files. The CSVs and the ensemble's JSON
mirror are streamed CHUNK_ROWS rows at a time, so writing them takes memory
bounded whatever the trial count.

Each row is written from its row code: its token columns combined
mixed-radix, each digit the value's offset in that column's token table.
The code indexes a read-only row-token table of pre-formatted text, built
once per layout: a CSV line after its trial_id, or a mirror record up to
its trial_id. A row then costs one lookup, the decimal of its trial_id and
one concatenation. Every writer checks its table before it opens its file.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from pathlib import Path
from typing import Iterable, Iterator

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


def _token_table(tokens: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """(lowest value, token of each value by its offset from it, whether that
    offset has a token): the outcome columns' -1/+1 leave a hole at 0."""
    offset = min(tokens)
    values = range(offset, max(tokens) + 1)
    table = np.array([tokens.get(v) for v in values], dtype=object)
    return offset, table, np.array([v in tokens for v in values])


_TOKEN_TABLES = {name: _token_table(tokens) for name, tokens in _CSV_TOKENS.items()}

# Rows formatted at a time by the CSV and JSON writers and decoded at a time
# by the CSV reader; bounds their memory whatever the trial count.
CHUNK_ROWS = 4096
_ID_DIGITS = 18  # a trial_id is an integer in [0, 10**18)


def _check_tokens(trials: Trials, names) -> None:
    """Raise ValueError if a named column holds a value its token table
    lacks, or trial_id one outside the integers in [0, 10**18) that
    read_ensemble_csv reads back; the writers call this before they open
    their file."""
    if not len(trials):
        return
    ids = trials["trial_id"]
    if ids.dtype.kind not in "iu" or ids[0] < 0 or ids[-1] >= 10**_ID_DIGITS:
        raise ValueError(f"trial_id holds a value outside the integers in [0, 10**{_ID_DIGITS})")
    for name in names:
        if name in _TOKEN_TABLES and name in trials.columns:
            offset, tokens, known = _TOKEN_TABLES[name]
            codes = trials[name].astype(np.intp) - offset
            if codes.min() < 0 or codes.max() >= len(tokens) or not known[codes].all():
                raise ValueError(f"column {name} holds a value outside {sorted(_CSV_TOKENS[name])}")


def _row_table(names: tuple, render) -> np.ndarray:
    """The row-token table of the named columns: at each row code, the text
    ``render`` makes of the tokens (by column name) that the code stands for;
    None where a code holds a token table's hole.

    A row's code is mixed-radix over the names, first name most significant,
    with each digit its value's offset in that column's token table."""
    entries = [
        None if None in tokens else render(dict(zip(names, tokens)))
        for tokens in itertools.product(*(_TOKEN_TABLES[name][1] for name in names))
    ]
    table = np.array(entries, dtype=object)
    table.flags.writeable = False
    return table


def _rows(trials: Trials, names: tuple, table: np.ndarray):
    """(trial ids, the row-token table's text of each row), CHUNK_ROWS rows
    at a time."""
    for start in range(0, len(trials), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        ids = trials["trial_id"][rows]
        code = np.zeros(len(ids), dtype=np.intp)
        for name in names:
            offset, tokens, _ = _TOKEN_TABLES[name]
            code = code * len(tokens) + (trials[name][rows].astype(np.intp) - offset)
        yield ids.tolist(), table[code].tolist()


@functools.cache
def _csv_rows(header: tuple, names: tuple) -> np.ndarray:
    """The row-token table of a CSV layout: each row's fields after its
    trial_id, an empty field for each header column the table lacks (the
    collider toy's lambda pair), and its line end."""
    def line(tokens: dict) -> str:
        return "".join("," + tokens.get(name, "") for name in header[1:]) + "\n"

    return _row_table(names, line)


def _write_csv(path: str | Path, header: list[str], trials: Trials) -> None:
    _check_tokens(trials, header)
    names = tuple(name for name in header[1:] if name in trials.columns)
    table = _csv_rows(tuple(header), names)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for ids, texts in _rows(trials, names, table):
            fh.write("".join([f"{i}{text}" for i, text in zip(ids, texts)]))


def write_ensemble_csv(path: str | Path, ensemble: Trials) -> None:
    _write_csv(path, ENSEMBLE_HEADER, ensemble)


def write_toy_csv(path: str | Path, trials: Trials) -> None:
    _write_csv(path, TOY_HEADER, trials)


def write_rps_csv(path: str | Path, trials: Trials) -> None:
    _write_csv(path, RPS_HEADER, trials)


def _reject_rows(path, first_line: int, bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise ValueError(f"{path}, line {first_line + int(np.argmax(bad))}: {message}")


# A token field is read as one uint64 key: its first 7 bytes, little-endian,
# with its length (8 for any longer field) in the top byte.
_KEY_MASKS = np.array([(1 << 8 * min(n, 7)) - 1 for n in range(9)], dtype=np.uint64)


def _field_keys(text: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The key of each field of ``text`` given by its start and length."""
    # The 8 bytes at every offset of the text as one unaligned uint64.
    words = np.ndarray((len(text),), dtype="<u8", buffer=text + bytes(8), strides=(1,))
    n = np.minimum(lengths, 8)
    return (words[starts] & _KEY_MASKS[n]) | (n.astype(np.uint64) << np.uint64(56))


def _decoder(name: str) -> tuple[np.ndarray, np.ndarray]:
    """(the keys of a column's tokens in sorted order, the value each reads as)."""
    pairs = sorted(
        (int(_field_keys(token.encode("ascii"), np.array(0), np.array(len(token)))), value)
        for value, token in _CSV_TOKENS[name].items()
    )
    dtype = bool if name == "heralded" else np.int8
    return (np.array([k for k, _ in pairs], dtype=np.uint64),
            np.array([v for _, v in pairs], dtype=dtype))


_DECODERS = {name: _decoder(name) for name in ENSEMBLE_HEADER[1:]}
_SEPARATOR, _NEWLINE = ord(","), ord("\n")


def _decode_rows(path, first_line: int, lines: list, last_id: int) -> dict[str, np.ndarray]:
    """Columns of the ensemble CSV lines (bytes) that start at line
    ``first_line``; ``last_id`` is the trial_id of the row before them, -1
    for none. The chunk's text is split on its commas and line ends at once:
    each row must hold exactly len(ENSEMBLE_HEADER) - 1 commas."""
    text = b"".join(lines).replace(b"\r\n", b"\n")
    if text and not text.endswith(b"\n"):
        text += b"\n"  # the file's last line
    buf = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero((buf == _SEPARATOR) | (buf == _NEWLINE))
    line_end = buf[ends] == _NEWLINE
    width = np.bincount(np.cumsum(line_end) - line_end, minlength=len(lines))
    _reject_rows(path, first_line, width != len(ENSEMBLE_HEADER),
                 f"expected {len(ENSEMBLE_HEADER)} fields")
    starts = np.concatenate(([0], ends + 1))[:-1].reshape(len(lines), len(ENSEMBLE_HEADER))
    ends = ends.reshape(starts.shape)
    lengths = ends - starts
    # trial_id: the chunk's longest id's width of bytes, right-aligned; a
    # byte outside 0-9 wraps above 9.
    id_lengths = lengths[:, 0]
    k = np.arange(min(id_lengths.max(initial=0), _ID_DIGITS))
    inside = k >= len(k) - id_lengths[:, None]
    digits = buf[np.maximum(ends[:, :1] - len(k) + k, 0)] - np.uint8(ord("0"))
    not_digit = (inside & (digits > 9)).any(axis=1)
    _reject_rows(path, first_line, (id_lengths == 0) | (id_lengths > _ID_DIGITS) | not_digit,
                 f"trial_id is not an integer in [0, 10**{_ID_DIGITS})")
    ids = np.zeros(len(lines), dtype=np.int64)
    for column, digit in zip(inside.T, digits.T):
        ids = 10 * ids + np.where(column, digit, 0)
    _reject_rows(path, first_line, ids <= np.r_[last_id, ids[:-1]],
                 "trial_id not above the previous row's")
    columns = {"trial_id": ids}
    keys = _field_keys(text, starts[:, 1:], lengths[:, 1:])
    for name, key in zip(ENSEMBLE_HEADER[1:], keys.T):
        # One binary search of the column's few token keys per field, no sort.
        tokens, values = _DECODERS[name]
        at = np.searchsorted(tokens, key).clip(max=len(tokens) - 1)
        _reject_rows(path, first_line, tokens[at] != key,
                     f"{name} is none of {list(_CSV_TOKENS[name].values())}")
        columns[name] = values[at]
    return columns


def read_ensemble_csv(path: str | Path) -> Trials:
    """Read an ensemble CSV back into a table, CHUNK_ROWS rows at a time. A
    row with the wrong field count, a token outside its column's table (such
    as a setting outside {0, 1} or an outcome outside {+1, -1}), or a
    trial_id not above the previous row's raises ValueError naming its line.
    Fields are read as the writers write them: unquoted ASCII, lines ending
    in \\n (or \\r\\n)."""
    chunks = []
    last_id = -1
    with open(path, "rb") as fh:
        line = fh.readline().decode("utf-8")
        header = next(csv.reader([line]), None) if line else None
        if header != ENSEMBLE_HEADER:
            raise ValueError(f"unexpected ensemble CSV header: {header}")
        while True:
            lines = list(itertools.islice(fh, CHUNK_ROWS))
            chunks.append(_decode_rows(path, 2 + CHUNK_ROWS * len(chunks), lines, last_id))
            if len(lines) < CHUNK_ROWS:
                break
            last_id = int(chunks[-1]["trial_id"][-1])
    return Trials({name: np.concatenate([c[name] for c in chunks]) for name in ENSEMBLE_HEADER})


# A mirror record holds the ensemble CSV's tokens, c_outcome's quoted, under
# keys in json's sort_keys order (A, B, a, b, c_outcome, heralded, trial_id)
# at dumps_canonical's indent.
_MIRROR_KEYS = sorted(ENSEMBLE_HEADER)
_MIRROR_END = "\n    }"


def _mirror_head(tokens: dict) -> str:
    """A mirror record's text up to its trial_id."""
    fields = "".join(
        f'\n      "{key}": {json.dumps(tokens[key]) if key == "c_outcome" else tokens[key]},'
        for key in _MIRROR_KEYS[:-1]
    )
    return "\n    {" + fields + '\n      "trial_id": '


@functools.cache
def _mirror_rows() -> np.ndarray:
    """The mirror's row-token table, at the ensemble CSV's row codes."""
    return _row_table(tuple(ENSEMBLE_HEADER[1:]), _mirror_head)


def ensemble_json_payload(ensemble: Trials, meta: dict) -> Iterator[str]:
    """The JSON mirror as text chunks for write_json: the bytes of
    dumps_canonical({"meta": meta, "records": [one object per row]}), with
    the records formatted CHUNK_ROWS at a time from the row-token table."""
    _check_tokens(ensemble, _MIRROR_KEYS)
    text = json.dumps({"meta": dict(meta), "records": []}, sort_keys=True, indent=2)
    # The meta may hold "[]" too, but "records" sorts after it.
    head, _, tail = text.rpartition("[]")
    return itertools.chain([head], _mirror_records(ensemble), [tail + "\n"])


def _mirror_records(ensemble: Trials) -> Iterator[str]:
    if not len(ensemble):
        yield "[]"
        return
    sep = "["
    for ids, texts in _rows(ensemble, tuple(ENSEMBLE_HEADER[1:]), _mirror_rows()):
        yield sep + (_MIRROR_END + ",").join([f"{text}{i}" for i, text in zip(ids, texts)])
        sep = _MIRROR_END + ","
    yield _MIRROR_END + "\n  ]"


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, payload: dict | Iterable[str]) -> None:
    """Write a dict as dumps_canonical text, or the text chunks of
    ensemble_json_payload as they come."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if isinstance(payload, dict):
            fh.write(dumps_canonical(payload))
        else:
            fh.writelines(payload)
