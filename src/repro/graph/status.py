"""The enrollment status — a learning-graph node's payload.

Per Section 2, a status is ``(s_i, X_i, Y_i)``: the semester, the completed
course set, and the derived option set.  Two statuses are *the same state*
when their semester and completed set coincide — ``Y`` is a function of
those two given a fixed catalog/schedule — so equality and hashing ignore
``options``.  That identification is what lets the frontier DP
(:mod:`repro.core.frontier`) merge the paper's out-tree into one layer
of distinct statuses per term.

``Y_i`` is only needed to expand a node (``W ⊆ Y_i``), and most generated
nodes terminate or are pruned first, so a status built by the expander
derives ``Y`` on first read of :attr:`~EnrollmentStatus.options`.

Statuses are the single most-allocated object in the engine (one per tree
node, one per frontier state per layer), so the class is a hand-rolled
``__slots__`` immutable rather than a dataclass: no per-instance
``__dict__``, and the same frozen semantics on every supported Python
(``@dataclass(slots=True)`` only exists from 3.10).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import FrozenSet

from ..semester import Term

__all__ = ["EnrollmentStatus"]


class EnrollmentStatus:
    """A student's state at the start of one semester.

    Attributes
    ----------
    term:
        The semester ``s_i``.
    completed:
        ``X_i`` — ids of courses completed before ``term``.
    options:
        ``Y_i`` — ids of courses the student may elect in ``term``
        (offered now, prerequisites met, not yet completed).  Derived data:
        excluded from equality and hashing.  A status from
        :meth:`deferred` derives it on first read.
    """

    __slots__ = ("term", "completed", "_options", "_expander")

    def __init__(
        self,
        term: Term,
        completed: FrozenSet[str],
        options: FrozenSet[str] = frozenset(),
    ):
        if not isinstance(completed, frozenset):
            completed = frozenset(completed)
        if not isinstance(options, frozenset):
            options = frozenset(options)
        overlap = completed & options
        if overlap:
            raise ValueError(
                f"options may not include completed courses: {sorted(overlap)}"
            )
        _set_term(self, term)
        _set_completed(self, completed)
        _set_options(self, options)
        _set_expander(self, None)

    @classmethod
    def deferred(
        cls, term: Term, completed: FrozenSet[str], expander
    ) -> "EnrollmentStatus":
        """A status whose ``Y`` is ``expander.options(completed, term)``
        (a :class:`~repro.core.expansion.Expander`), derived on first read
        of :attr:`options`; ``completed`` must already be a frozenset."""
        status = _new(cls)
        _set_term(status, term)
        _set_completed(status, completed)
        _set_options(status, None)
        _set_expander(status, expander)
        return status

    @property
    def options(self) -> FrozenSet[str]:
        """``Y_i``, derived on first read for a :meth:`deferred` status."""
        options = self._options
        if options is None:
            options = self._expander.options(self.completed, self.term)
            _set_options(self, options)
            _set_expander(self, None)
        return options

    # -- frozen semantics ----------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # __setattr__ is blocked, so pickling and copying go back through
        # __init__ instead of restoring attributes one by one; the copy
        # carries ``Y`` (derived here if need be), never the expander.
        return (self.__class__, (self.term, self.completed, self.options))

    # -- identity (term, completed) — options are derived --------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.term, self.completed) == (other.term, other.completed)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.term, self.completed))

    def __repr__(self) -> str:
        return (
            f"EnrollmentStatus(term={self.term!r}, "
            f"completed={self.completed!r}, options={self.options!r})"
        )

    def after_selection(
        self, selection: FrozenSet[str], options: FrozenSet[str] = frozenset()
    ) -> "EnrollmentStatus":
        """The successor status after electing ``selection`` this term.

        Implements the paper's transition: ``s_{i+1} = s_i + 1`` and
        ``X_{i+1} = X_i ∪ W_{i,i+1}``.  ``selection`` must come from the
        current options.
        """
        selection = frozenset(selection)
        if not selection <= self.options:
            raise ValueError(
                f"selection {sorted(selection - self.options)} not in options"
            )
        return EnrollmentStatus(
            term=self.term + 1,
            completed=self.completed | selection,
            options=frozenset(options),
        )

    def describe(self) -> str:
        """A compact single-line rendering (for logs and the visualizer)."""
        completed = ", ".join(sorted(self.completed)) or "∅"
        options = ", ".join(sorted(self.options)) or "∅"
        return f"{self.term.short}  X={{{completed}}}  Y={{{options}}}"

    def __str__(self) -> str:
        return self.describe()


# The slots' member descriptors store a value without a trip through the
# (blocking) ``__setattr__`` or the generic attribute lookup that
# ``object.__setattr__`` makes; the expander builds a status per tree node.
_new = object.__new__
_set_term = EnrollmentStatus.term.__set__
_set_completed = EnrollmentStatus.completed.__set__
_set_options = EnrollmentStatus._options.__set__
_set_expander = EnrollmentStatus._expander.__set__
