"""Catalog persistence and the registrar-to-catalog pipeline.

Combines the two parsers into the paper's full back-end flow (Fig. 2):
course descriptions → Prerequisite Parser, schedule table → Schedule
Parser, both joined into a validated :class:`~repro.catalog.Catalog`.
Also round-trips catalogs through JSON files so front-ends can cache the
parsed registrar data.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from ..catalog import Catalog, Course, Schedule
from ..errors import CatalogError
from .prereq_parser import parse_prerequisites
from .schedule_parser import parse_schedule_text

__all__ = [
    "save_catalog",
    "load_catalog",
    "load_catalog_json",
    "build_catalog_from_registrar",
]

PathLike = Union[str, "os.PathLike[str]"]


def save_catalog(catalog: Catalog, path: PathLike, indent: int = 2) -> None:
    """Write ``catalog`` to ``path`` as JSON (inverse of :func:`load_catalog`)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(catalog.to_dict(), handle, indent=indent, sort_keys=True)
        handle.write("\n")


def load_catalog(path: PathLike) -> Catalog:
    """Read a catalog previously written by :func:`save_catalog`.

    Malformed content (invalid JSON, a broken course entry) raises
    :class:`~repro.errors.CatalogError` with ``path`` in its message.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise CatalogError(f"{os.fspath(path)}: invalid JSON: {exc}") from None
    try:
        return load_catalog_json(data)
    except CatalogError as exc:
        raise CatalogError(f"{os.fspath(path)}: {exc}") from exc


def load_catalog_json(data: Mapping[str, Any]) -> Catalog:
    """Build a catalog from already-parsed JSON data."""
    if not isinstance(data, Mapping):
        raise CatalogError(f"catalog JSON must be an object, got {type(data).__name__}")
    return Catalog.from_dict(data)


def build_catalog_from_registrar(
    course_descriptions: Mapping[str, str],
    schedule_text: str,
    workloads: Optional[Mapping[str, float]] = None,
    tags: Optional[Mapping[str, Iterable[str]]] = None,
    titles: Optional[Mapping[str, str]] = None,
    instructor_permission: str = "ignore",
) -> Catalog:
    """Run the full back-end pipeline over raw registrar text.

    Parameters
    ----------
    course_descriptions:
        ``{course_id: prerequisite prose}``.  Every course in the catalog
        must appear here (use an empty string for no prerequisites).
    schedule_text:
        Line-format schedule document (see
        :func:`~repro.parsing.schedule_parser.parse_schedule_text`).
    workloads:
        Optional ``{course_id: weekly hours}`` estimates (defaults to the
        :class:`~repro.catalog.Course` default).
    tags:
        Optional ``{course_id: labels}`` (``core``/``elective`` …).
    titles:
        Optional ``{course_id: human title}``.
    instructor_permission:
        Forwarded to the prerequisite parser.

    Returns
    -------
    Catalog
        Validated: schedules may only mention described courses, and
        prerequisites may only reference described courses.
    """
    workloads = dict(workloads or {})
    tags = {cid: frozenset(v) for cid, v in (tags or {}).items()}
    titles = dict(titles or {})

    courses = []
    for course_id, prose in course_descriptions.items():
        kwargs: Dict[str, Any] = {
            "course_id": course_id,
            "prereq": parse_prerequisites(prose, instructor_permission),
        }
        if course_id in workloads:
            kwargs["workload_hours"] = workloads[course_id]
        if course_id in tags:
            kwargs["tags"] = tags[course_id]
        if course_id in titles:
            kwargs["title"] = titles[course_id]
        courses.append(Course(**kwargs))

    schedule = parse_schedule_text(schedule_text)
    return Catalog(courses, schedule=schedule)


def dump_catalog_json(catalog: Catalog) -> str:
    """The catalog as a JSON string (stable key order)."""
    return json.dumps(catalog.to_dict(), indent=2, sort_keys=True)
