"""Cloze dataset records and jsonl serialization.

One json object per line with fields id, document, query, answer.
Document and query are space-delimited token strings; the query contains
exactly one placeholder token standing in for the answer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

PLACEHOLDER = "<blank>"


class DatasetError(ValueError):
    """Malformed dataset content; message carries the offending line."""


@dataclass(frozen=True)
class ClozeExample:
    id: str
    document: tuple[str, ...]
    query: tuple[str, ...]
    answer: str | None

    @property
    def placeholder_position(self) -> int:
        return self.query.index(PLACEHOLDER)


def _tokens(text: str, field: str, where: str) -> tuple[str, ...]:
    if not isinstance(text, str):
        raise DatasetError(f"{where}: field {field!r} must be a string")
    tokens = tuple(text.split())
    if not tokens:
        raise DatasetError(f"{where}: field {field!r} is empty")
    return tokens


def parse_record(obj: dict, where: str, require_answer: bool = True) -> ClozeExample:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: record is not a json object")
    for field in ("id", "document", "query"):
        if field not in obj:
            raise DatasetError(f"{where}: missing field {field!r}")
    ex_id = obj["id"]
    if not isinstance(ex_id, str) or not ex_id:
        raise DatasetError(f"{where}: field 'id' must be a non-empty string")
    document = _tokens(obj["document"], "document", where)
    query = _tokens(obj["query"], "query", where)
    if query.count(PLACEHOLDER) != 1:
        raise DatasetError(
            f"{where}: query must contain exactly one {PLACEHOLDER}, "
            f"found {query.count(PLACEHOLDER)}"
        )
    answer = obj.get("answer")
    if answer is None:
        if require_answer:
            raise DatasetError(f"{where}: missing field 'answer'")
    else:
        if not isinstance(answer, str) or not answer:
            raise DatasetError(f"{where}: field 'answer' must be a non-empty string")
        if require_answer and answer not in document:
            raise DatasetError(
                f"{where}: example {ex_id!r}: answer {answer!r} not in document"
            )
    return ClozeExample(ex_id, document, query, answer)


def load_dataset(path, require_answer: bool = True) -> list[ClozeExample]:
    """Read one record per line; errors name the file and its 1-based line."""
    name = os.path.basename(path)
    examples: list[ClozeExample] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{name} line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetError(f"{where}: invalid json: {err.msg}") from None
            examples.append(parse_record(obj, where, require_answer))
    if not examples:
        raise DatasetError(f"{name}: dataset is empty")
    return examples


def save_dataset(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            record = {
                "id": ex.id,
                "document": " ".join(ex.document),
                "query": " ".join(ex.query),
            }
            if ex.answer is not None:
                record["answer"] = ex.answer
            fh.write(json.dumps(record) + "\n")
