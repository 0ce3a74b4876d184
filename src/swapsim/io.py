"""CSV/JSON persistence for ensembles, toy runs, and analysis reports.

All writers are byte-deterministic: fixed headers, ASCII outcome tokens,
sorted JSON keys, ``\n`` line ends and no timestamps, so identical (seed,
config) inputs reproduce identical files. The CSVs and the ensemble's JSON
mirror are streamed CHUNK_ROWS rows at a time, so the text they hold at
once is bounded whatever the trial count.

Each row is written from its row code: its token columns combined
mixed-radix, each digit the value's offset from its column's lowest value
in ``engine._COLUMN_VALUES``, from which each token table is derived.
``row_code`` checks a run against a writer's header and has
``engine._code_rows`` check and code every row once; the CSV, the mirror
and ``analysis.count_table`` all read that one code. The code indexes a
read-only row-token table of pre-formatted ASCII text, NUL-padded to a
fixed width and built on first use per layout: a CSV line after its
trial_id, or a mirror record up to its trial_id. One byte kernel serves
every writer: a chunk of rows fills one block of bytes with each row's
table text and its trial_id's decimal (NUL-led, from a table of four-digit
groups), and one compress drops the NULs. Every file is written as bytes.

The check runs before a writer opens its file, and the text is built and
written one chunk at a time.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .engine import _COLUMN_VALUES, OUTCOMES, Trials, _code_rows
from .qcore import BellOutcome
from .toys import RPS_CHOICES, RPS_VERDICTS

ENSEMBLE_HEADER = ["trial_id", "a", "b", "A", "B", "c_outcome", "heralded"]
TOY_HEADER = ["trial_id", "a", "b", "A", "B", "lambda_A", "lambda_B", "accepted"]
RPS_HEADER = ["trial_id", "alice", "bob", "verdict"]

ABSENT_TOKEN = "absent"


def outcome_token(outcome: BellOutcome | None) -> str:
    return ABSENT_TOKEN if outcome is None else outcome.value


# The tokens that c_outcome (-1, C off, indexes the last), alice, bob and
# verdict codes index. Any other known column's token is its value's text in
# lower case (0, 1, -1, false, true); trial_id is written in decimal.
_CODE_TOKENS = {
    "c_outcome": tuple(map(outcome_token, OUTCOMES + (None,))),
    **dict.fromkeys(("alice", "bob"), tuple(c.value for c in RPS_CHOICES)),
    "verdict": tuple(v.value for v in RPS_VERDICTS),
}


def _token_table(name: str) -> tuple[int, np.ndarray]:
    """(lowest value, the token of each value of a known column by its
    offset from it, None where it may hold no value: the outcomes' 0)."""
    values = _COLUMN_VALUES[name]
    offset, tokens = min(values), _CODE_TOKENS.get(name)
    table = np.full(max(values) - offset + 1, None, dtype=object)
    for value in values:
        table[value - offset] = str(value).lower() if tokens is None else tokens[value]
    return offset, table


_TOKEN_TABLES = {name: _token_table(name) for name in _COLUMN_VALUES}

# Rows the CSV and JSON writers format at a time, whatever the trial count.
CHUNK_ROWS = 4096
_ID_DIGITS = 18  # a trial_id is an integer in [0, 10**18)


class RowCode(NamedTuple):
    """A run's joint row code (see the module docstring) over ``names``, its
    token columns in header order: one small signed integer per row."""

    names: tuple[str, ...]
    code: np.ndarray


def row_code(trials: Trials, header) -> RowCode:
    """Check ``trials`` against a writer's ``header``, then code each row
    with ``engine._code_rows``, which checks each token column's values.

    Raise ValueError if the table lacks a header column (only the collider
    toy's lambda pair may be absent, and only as a pair), or trial_id holds
    a value outside the integers in [0, 10**18) that _decimals writes (it
    casts ids to int64)."""
    missing = [name for name in header if name not in trials.columns]
    if missing and missing != ["lambda_A", "lambda_B"]:
        raise ValueError(f"table lacks column(s) {', '.join(missing)}")
    ids = trials["trial_id"]
    if len(ids) and (ids[0] < 0 or ids[-1] >= 10**_ID_DIGITS):  # Trials holds integer ids only
        raise ValueError(f"trial_id holds a value outside the integers in [0, 10**{_ID_DIGITS})")
    names = tuple(name for name in header[1:] if name in trials.columns)
    return RowCode(names, _code_rows(trials, names))


def _row_table(names: tuple, render) -> np.ndarray:
    """The row-token table of the named columns: at each row code, the ASCII
    bytes of the text ``render`` makes of the tokens (by column name) that
    the code stands for, NUL-padded to the table's width (an ``S`` array);
    empty where a code holds a token table's hole.

    A row's code is mixed-radix over the names, first name most significant,
    with each digit its value's offset in that column's token table."""
    entries = [
        b"" if None in tokens else render(dict(zip(names, tokens))).encode("ascii")
        for tokens in itertools.product(*(_TOKEN_TABLES[name][1] for name in names))
    ]
    # The writers drop every NUL of a row, so no text may hold one.
    assert not any(b"\0" in entry for entry in entries)
    table = np.array(entries, dtype=bytes)
    table.flags.writeable = False
    return table


_LIMB = 10**4  # a trial_id's decimal is built four digits at a time


@functools.cache
def _limb_digits() -> np.ndarray:
    """The four ASCII digits of each value below 10**4 as one uint32 of
    bytes in text order, leading zeros as NUL (so 0 is all NUL)."""
    place = 10 ** np.arange(3, -1, -1, dtype=np.uint16)
    values = np.arange(_LIMB, dtype=np.uint16)[:, None]
    digits = (values // place % 10 + ord("0")).astype(np.uint8)
    digits[values < place] = 0
    words = digits.view(np.uint32).ravel()
    words.flags.writeable = False
    return words


_ZEROS = np.frombuffer(b"0000", dtype=np.uint32)[0]  # ORed in, turns NUL digits to "0"


def _decimals(ids: np.ndarray) -> np.ndarray:
    """The decimal of each trial_id (ascending, in [0, 10**18)) as a row of
    uint8 ASCII digits, right-aligned in as many whole limbs of four as the
    last id needs, leading zeros as NUL."""
    digits = _limb_digits()
    limbs = -(-len(str(int(ids[-1]))) // 4)
    words = np.empty((len(ids), limbs), dtype=np.uint32)
    higher = ids.astype(np.int64)
    for limb in range(limbs - 1, -1, -1):
        higher, value = np.divmod(higher, _LIMB)
        # A limb with a nonzero digit above it keeps its leading zeros.
        words[:, limb] = digits[value] | np.where(higher > 0, _ZEROS, 0)
    text = words.view(np.uint8)
    if ids[0] == 0:  # the only id whose digits are all leading zeros
        text[0, -1] = ord("0")
    return text


def _row_text(
    trials: Trials, code: np.ndarray, head: np.ndarray | None = None,
    tail: np.ndarray | None = None,
) -> Iterator[bytearray]:
    """The ASCII text of CHUNK_ROWS rows at a time: each row its head
    table's text, its trial_id's decimal and its tail table's text, both
    tables at the row's code."""
    for start in range(0, len(trials), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        yield _join_rows(head, _decimals(trials["trial_id"][rows]), tail, code[rows])


def _join_rows(head: np.ndarray | None, digits: np.ndarray, tail: np.ndarray | None,
               code: np.ndarray) -> bytearray:
    """The rows of one chunk laid side by side in one (rows, width) block of
    bytes, returned without its NULs. Each part is dropped once copied into
    the block, so a chunk holds about two copies of its text at a time."""
    parts = [table[code].view(np.uint8).reshape(len(code), -1)
             for table in (head, tail) if table is not None]
    parts.insert(0 if head is None else 1, digits)
    width = sum(part.shape[1] for part in parts)
    block = bytearray(len(code) * width)
    np.concatenate(parts, axis=1, out=np.frombuffer(block, np.uint8).reshape(len(code), width))
    del parts
    return block.translate(None, b"\0")


@functools.cache
def _csv_rows(header: tuple, names: tuple) -> np.ndarray:
    """The row-token table of a CSV layout: each row's fields after its
    trial_id, an empty field for each header column the table lacks (the
    collider toy's lambda pair), and its line end."""
    def line(tokens: dict) -> str:
        return "".join("," + tokens.get(name, "") for name in header[1:]) + "\n"

    return _row_table(names, line)


def _write_csv(path: str | Path, header: list[str], trials: Trials, rows: RowCode | None) -> None:
    rows = row_code(trials, header) if rows is None else rows
    table = _csv_rows(tuple(header), rows.names)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        fh.writelines(_row_text(trials, rows.code, tail=table))


# Each writer takes the table's row_code under its header, or codes the
# table itself when given none.
def write_ensemble_csv(path: str | Path, ensemble: Trials, rows: RowCode | None = None) -> None:
    _write_csv(path, ENSEMBLE_HEADER, ensemble, rows)


def write_toy_csv(path: str | Path, trials: Trials, rows: RowCode | None = None) -> None:
    _write_csv(path, TOY_HEADER, trials, rows)


def write_rps_csv(path: str | Path, trials: Trials, rows: RowCode | None = None) -> None:
    _write_csv(path, RPS_HEADER, trials, rows)


# A mirror record holds the ensemble CSV's tokens, c_outcome's quoted, under
# keys in json's sort_keys order (A, B, a, b, c_outcome, heralded, trial_id)
# at dumps_canonical's indent.
_MIRROR_KEYS = sorted(ENSEMBLE_HEADER)
_MIRROR_END = "\n    }"
_MIRROR_SEP = _MIRROR_END + ","


def _mirror_head(tokens: dict) -> str:
    """A mirror record's text up to its trial_id, led by the separator that
    closes the record before it."""
    fields = "".join(
        f'\n      "{key}": {json.dumps(tokens[key]) if key == "c_outcome" else tokens[key]},'
        for key in _MIRROR_KEYS[:-1]
    )
    return _MIRROR_SEP + "\n    {" + fields + '\n      "trial_id": '


@functools.cache
def _mirror_rows() -> np.ndarray:
    """The mirror's row-token table, at the ensemble CSV's row codes."""
    return _row_table(tuple(ENSEMBLE_HEADER[1:]), _mirror_head)


def ensemble_json_payload(
    ensemble: Trials, meta: dict, rows: RowCode | None = None
) -> Iterator[bytes]:
    """The JSON mirror as byte chunks for write_json: the bytes of
    dumps_canonical({"meta": meta, "records": [one object per row]}), with
    the records formatted CHUNK_ROWS at a time from the row-token table."""
    rows = row_code(ensemble, ENSEMBLE_HEADER) if rows is None else rows
    text = json.dumps({"meta": dict(meta), "records": []}, sort_keys=True, indent=2)
    # The meta may hold "[]" too, but "records" sorts after it.
    head, _, tail = text.rpartition("[]")
    records = _mirror_records(ensemble, rows.code)
    return itertools.chain([head.encode("ascii")], records, [(tail + "\n").encode("ascii")])


def _mirror_records(ensemble: Trials, code: np.ndarray) -> Iterator[bytes]:
    if not len(ensemble):
        yield b"[]"
        return
    chunks = _row_text(ensemble, code, head=_mirror_rows())
    # The first record opens the list instead of closing a record.
    yield b"["
    yield memoryview(next(chunks))[len(_MIRROR_SEP):]
    yield from chunks
    yield (_MIRROR_END + "\n  ]").encode("ascii")


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, payload: dict | Iterable[bytes]) -> None:
    """Write a dict as dumps_canonical text, encoded once, or the byte
    chunks of ensemble_json_payload as they come."""
    with open(path, "wb") as fh:
        if isinstance(payload, dict):
            fh.write(dumps_canonical(payload).encode("ascii"))
        else:
            fh.writelines(payload)
