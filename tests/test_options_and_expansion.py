"""Tests for selection enumeration and the shared Expander."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Schedule
from repro.core import (
    TimeRanking,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.core import expansion
from repro.core.config import ExplorationConfig
from repro.core.constraints import (
    ForbiddenCombination,
    MaxWorkloadPerTerm,
    TermBlackout,
    check_all,
)
from repro.core.expansion import Expander
from repro.core.options import iter_selections, selection_count
from repro.core.step import NodeStep
from repro.data import (
    GeneratorSettings,
    brandeis_catalog,
    brandeis_major_goal,
    lakeside_catalog,
    random_catalog,
    start_term_for_semesters,
)
from repro.data.brandeis import EVALUATION_END_TERM
from repro.data.trimester import LAKESIDE_FIRST_TERM, LAKESIDE_LAST_TERM
from repro.errors import InvalidConfigError, UnknownCourseError
from repro.graph import EnrollmentStatus
from repro.obs import InMemorySink, MetricsRegistry, Observability, Tracer
from repro.semester import SPRING_SUMMER_FALL, Term

from .conftest import F11, F12, S12, S13


class TestIterSelections:
    def test_sizes_one_to_m(self):
        selections = list(iter_selections({"A", "B", "C"}, 2))
        assert frozenset({"A"}) in selections
        assert frozenset({"A", "B"}) in selections
        assert frozenset({"A", "B", "C"}) not in selections
        assert frozenset() not in selections

    def test_count_matches_formula(self):
        for n in range(0, 6):
            for m in range(1, 5):
                options = {f"X{i}" for i in range(n)}
                assert len(list(iter_selections(options, m))) == selection_count(n, m)

    def test_min_per_term_floor(self):
        selections = list(iter_selections({"A", "B", "C"}, 3, min_per_term=2))
        assert all(len(s) >= 2 for s in selections)
        assert len(selections) == 3 + 1

    def test_min_zero_includes_empty(self):
        selections = list(iter_selections({"A"}, 1, min_per_term=0))
        assert frozenset() in selections

    def test_deterministic_order(self):
        a = list(iter_selections({"B", "A", "C"}, 2))
        b = list(iter_selections({"C", "A", "B"}, 2))
        assert a == b
        # sizes ascending
        sizes = [len(s) for s in a]
        assert sizes == sorted(sizes)

    def test_paper_branching_formula(self):
        # Σ_{i=1..m} C(|Y|, i) — the §4.3 selection-options count.
        assert selection_count(6, 3) == 6 + 15 + 20


def _relevant_future_offering(schedule, completed, term, end_term, avoid):
    """The ``auto`` empty move's condition, from its definition: some
    course neither completed nor avoided is offered in a term strictly
    after ``term`` and strictly before ``end_term``."""
    later = term + 1
    while later < end_term:
        for course_id in schedule.offered_in(later):
            if course_id not in completed and course_id not in avoid:
                return True
        later = later + 1
    return False


class TestFutureOffering:
    """``Expander.offered_from(s_i + 1)`` holds what waiting at ``s_i`` can
    still reach: everything offered in ``[s_i + 1, d − 1]``, not avoided."""

    @staticmethod
    def _waiting_pays_off(catalog, completed, term, end_term, exclude=frozenset()):
        expander = Expander(catalog, end_term, ExplorationConfig(avoid_courses=exclude))
        return not expander.offered_from(term + 1) <= frozenset(completed)

    def test_detects_relevant_future(self, fig3_catalog):
        # Fig. 3 node n4: X={29A} at Spring '12 — 11A returns in Fall '12.
        assert self._waiting_pays_off(
            fig3_catalog, {"29A"}, S12, S13
        )

    def test_everything_completed_means_none(self, fig3_catalog):
        # Fig. 3 node n6: all courses done.
        assert not self._waiting_pays_off(
            fig3_catalog, {"11A", "29A", "21A"}, F12, S13
        )

    def test_window_excludes_end_term(self, fig3_catalog):
        # Courses taken in t complete by t+1, so an offering *at* the end
        # term is useless.
        assert not self._waiting_pays_off(
            fig3_catalog, frozenset(), F12, S13
        )

    def test_exclusions_respected(self, fig3_catalog):
        assert not self._waiting_pays_off(
            fig3_catalog, {"29A"}, S12, S13, exclude={"11A", "21A"}
        )

    def test_offered_from_is_the_schedule_window_minus_avoided(self, fig3_catalog):
        config = ExplorationConfig(avoid_courses=frozenset({"29A"}))
        expander = Expander(fig3_catalog, S13, config)
        assert expander.offered_from(F11) == {"11A", "21A"}
        assert expander.offered_from(S12) == {"11A", "21A"}
        assert expander.offered_from(F12) == {"11A"}
        assert expander.offered_from(S13) == frozenset()
        assert expander.offered_from(F12) is expander.offered_from(F12)


@st.composite
def _empty_move_cases(draw):
    """A random two- or three-season catalog (or the trimester dataset), an
    avoid-list, and one status before a deadline on its calendar."""
    kind = draw(st.sampled_from(["two-season", "three-season", "lakeside"]))
    if kind == "lakeside":
        catalog = lakeside_catalog()
        first, last = LAKESIDE_FIRST_TERM, LAKESIDE_LAST_TERM
    else:
        start = Term(2020, "Spring", SPRING_SUMMER_FALL) if kind == "three-season" else F11
        settings_ = GeneratorSettings(
            n_courses=draw(st.integers(2, 7)),
            n_terms=draw(st.integers(1, 6)),
            start_term=start,
            prereq_probability=draw(st.sampled_from([0.6, 0.9])),
            offer_probability=draw(st.sampled_from([0.1, 0.3, 0.6])),
        )
        catalog = random_catalog(draw(st.integers(0, 10_000)), settings_)
        first, last = start, start + (settings_.n_terms - 1)
    ids = sorted(catalog)
    avoid = draw(st.frozensets(st.sampled_from(ids), max_size=3))
    # Few completed courses leave prerequisites unmet: courses offered now
    # that cannot be elected, which waiting must not count.
    completed = draw(st.frozensets(st.sampled_from(ids), max_size=3))
    span = last - first
    term = first + draw(st.integers(-1, span + 1))
    end_term = term + draw(st.integers(1, span + 3))
    return catalog, avoid, completed, term, end_term


@settings(max_examples=200, deadline=None)
@given(case=_empty_move_cases())
def test_auto_empty_move_iff_a_course_is_still_offered_in_time(case):
    catalog, avoid, completed, term, end_term = case
    expander = Expander(catalog, end_term, ExplorationConfig(avoid_courses=avoid))
    moves = dict(expander.successors(expander.initial_status(term, completed)))
    waits = _relevant_future_offering(catalog.schedule, completed, term, end_term, avoid)
    assert (frozenset() in moves) == (set(moves) <= {frozenset()} and waits)


class TestExplorationConfig:
    def test_defaults_match_paper(self):
        config = ExplorationConfig()
        assert config.max_courses_per_term == 3
        assert config.empty_selection == "auto"
        assert config.enforce_min_selection

    def test_invalid_m(self):
        with pytest.raises(InvalidConfigError):
            ExplorationConfig(max_courses_per_term=0)

    def test_invalid_policy(self):
        with pytest.raises(InvalidConfigError):
            ExplorationConfig(empty_selection="sometimes")

    def test_invalid_max_nodes(self):
        with pytest.raises(InvalidConfigError):
            ExplorationConfig(max_nodes=0)

    def test_avoid_coerced(self):
        config = ExplorationConfig(avoid_courses={"A"})
        assert isinstance(config.avoid_courses, frozenset)


class TestExpander:
    def test_initial_status_matches_fig3_n1(self, fig3_catalog):
        expander = Expander(fig3_catalog, S13, ExplorationConfig())
        root = expander.initial_status(F11)
        assert root.term == F11
        assert root.completed == frozenset()
        assert root.options == {"11A", "29A"}

    def test_successors_match_fig3_root(self, fig3_catalog):
        # n1 branches to {11A}, {29A}, {11A, 29A} — and nothing else.
        expander = Expander(fig3_catalog, S13, ExplorationConfig())
        root = expander.initial_status(F11)
        successors = dict(expander.successors(root))
        assert set(successors) == {
            frozenset({"11A"}),
            frozenset({"29A"}),
            frozenset({"11A", "29A"}),
        }
        assert successors[frozenset({"11A", "29A"})] == {"11A", "29A"}
        child = expander.successor(root, {"11A", "29A"})
        assert child.term == S12
        assert child.completed == {"11A", "29A"}
        assert child.options == {"21A"}  # Fig. 3 node n3

    def test_empty_move_auto_allows_fig3_n4(self, fig3_catalog):
        # n4: X={29A} in Spring '12, no options, but 11A returns — one
        # empty transition.
        expander = Expander(fig3_catalog, S13, ExplorationConfig())
        n4 = expander.initial_status(S12, {"29A"})
        successors = dict(expander.successors(n4))
        assert successors == {frozenset(): n4.completed}
        child = expander.successor(n4, frozenset())
        assert child.term == F12
        assert child.options == {"11A"}  # Fig. 3 node n7

    def test_empty_move_auto_stops_fig3_n6(self, fig3_catalog):
        # n6: everything completed — dead end, no successors.
        expander = Expander(fig3_catalog, S13, ExplorationConfig())
        n6 = expander.initial_status(F12, {"11A", "29A", "21A"})
        assert list(expander.successors(n6)) == []

    def test_empty_move_auto_ignores_what_is_offered_now(self, fig3_catalog):
        # n4 with the deadline at Fall '12: 21A is offered in Spring '12 but
        # blocked by 11A, and 11A returns only at the deadline — no wait.
        expander = Expander(fig3_catalog, F12, ExplorationConfig())
        n4 = expander.initial_status(S12, {"29A"})
        assert list(expander.successors(n4)) == []

    def test_empty_move_never_policy(self, fig3_catalog):
        expander = Expander(
            fig3_catalog, S13, ExplorationConfig(empty_selection="never")
        )
        n4 = expander.initial_status(S12, {"29A"})
        assert list(expander.successors(n4)) == []

    def test_empty_move_always_policy(self, fig3_catalog):
        expander = Expander(
            fig3_catalog, S13, ExplorationConfig(empty_selection="always")
        )
        root = expander.initial_status(F11)
        successors = dict(expander.successors(root))
        assert frozenset() in successors  # skipping is allowed alongside

    def test_max_per_term_limits_selections(self, fig3_catalog):
        expander = Expander(
            fig3_catalog, S13, ExplorationConfig(max_courses_per_term=1)
        )
        root = expander.initial_status(F11)
        successors = dict(expander.successors(root))
        assert set(successors) == {frozenset({"11A"}), frozenset({"29A"})}

    def test_required_minimum_floors_selections(self, fig3_catalog):
        expander = Expander(fig3_catalog, S13, ExplorationConfig())
        root = expander.initial_status(F11)
        successors = dict(expander.successors(root, required_minimum=2))
        assert set(successors) == {frozenset({"11A", "29A"})}

    def test_required_minimum_suppresses_empty_move(self, fig3_catalog):
        expander = Expander(fig3_catalog, S13, ExplorationConfig())
        n4 = expander.initial_status(S12, {"29A"})
        assert list(expander.successors(n4, required_minimum=1)) == []

    def test_avoid_courses_removed_from_options(self, fig3_catalog):
        expander = Expander(
            fig3_catalog, S13, ExplorationConfig(avoid_courses=frozenset({"29A"}))
        )
        root = expander.initial_status(F11)
        assert root.options == {"11A"}


def _reference_successors(expander, status, floor):
    """``(selection, X ∪ W)`` for every legal move, enumerated afresh:
    the behaviour the selection memo must keep."""
    config = expander.config
    moves = []
    if status.options:
        for selection in iter_selections(
            status.options, config.max_courses_per_term, max(1, floor)
        ):
            if check_all(config.constraints, selection, status.term, status):
                moves.append(selection)
    if floor <= 0:
        policy = config.empty_selection
        allowed = policy == "always" or (
            policy == "auto"
            and not moves
            and _relevant_future_offering(
                expander.schedule,
                status.completed,
                status.term,
                expander.end_term,
                config.avoid_courses,
            )
        )
        if allowed and check_all(config.constraints, frozenset(), status.term, status):
            moves.append(frozenset())
    return [(move, status.completed | move) for move in moves]


def _moves(expander, status, floor):
    return list(expander.successors(status, required_minimum=floor))


def _memo_configs():
    catalog = brandeis_catalog()
    start = start_term_for_semesters(3)
    return {
        "auto": ExplorationConfig(),
        "never": ExplorationConfig(empty_selection="never"),
        "always": ExplorationConfig(empty_selection="always"),
        "m2-avoid": ExplorationConfig(
            max_courses_per_term=2, avoid_courses=frozenset({"COSI 21a"})
        ),
        "constraints": ExplorationConfig(
            constraints=(
                MaxWorkloadPerTerm(catalog, 30),
                ForbiddenCombination(["COSI 11a", "COSI 12b"]),
                TermBlackout([start + 1]),
            )
        ),
        "blackout-always": ExplorationConfig(
            empty_selection="always", constraints=(TermBlackout([start]),)
        ),
    }


class TestSelectionMemo:
    """Each expander memoises the selection list of every ``(Y, floor)``;
    successors must equal the plain enumeration with the memo cold and
    warm, and equal moves must share one selection object."""

    CONFIGS = _memo_configs()

    @staticmethod
    def _statuses(config):
        catalog = brandeis_catalog()
        start = start_term_for_semesters(3)
        graph = generate_deadline_driven(
            catalog, start, EVALUATION_END_TERM, config=config
        ).graph
        return catalog, [graph.status(node_id) for node_id in graph.node_ids()]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_successors_match_plain_enumeration_cold_and_warm(self, name):
        config = self.CONFIGS[name]
        catalog, statuses = self._statuses(config)
        assert len(statuses) > 100
        floors = range(-1, config.max_courses_per_term + 2)
        warm = Expander(catalog, EVALUATION_END_TERM, config)
        for status in statuses:
            for floor in floors:
                expected = _reference_successors(warm, status, floor)
                cold = Expander(catalog, EVALUATION_END_TERM, config)
                assert _moves(cold, status, floor) == expected
                first = _moves(warm, status, floor)
                again = _moves(warm, status, floor)
                assert first == again == expected
                assert all(a[0] is b[0] for a, b in zip(first, again))

    def test_equal_option_sets_share_selections(self):
        config = ExplorationConfig()
        catalog, statuses = self._statuses(config)
        expander = Expander(catalog, EVALUATION_END_TERM, config)
        by_options = {}
        shared = 0
        for status in statuses:
            if not status.options:
                continue
            selections = [selection for selection, _ in expander.successors(status)]
            earlier = by_options.setdefault(status.options, selections)
            if earlier is not selections:
                shared += 1
                assert all(a is b for a, b in zip(earlier, selections))
        assert shared > 0

    @pytest.mark.parametrize("bound", [1, 7, 40])
    def test_memo_never_exceeds_its_bound(self, monkeypatch, bound):
        monkeypatch.setattr(expansion, "SELECTION_MEMO_SIZE", bound)
        config = ExplorationConfig()
        catalog, statuses = self._statuses(config)
        expander = Expander(catalog, EVALUATION_END_TERM, config)
        memo = expander._selection_memo
        for status in statuses:
            for floor in (0, 2):
                assert _moves(expander, status, floor) == _reference_successors(
                    expander, status, floor
                )
                held = sum(len(selections) for selections in memo.values())
                assert held == expander._memo_held <= bound
        assert memo  # some option set's list fits even the smallest bound


class TestCanonicalCompletedSets:
    """The out-tree keeps one status per distinct ``(term, X)`` and one
    frozenset per distinct ``X``; the expander, and so the frontier and
    ranked engines, keep no run-long table."""

    @pytest.mark.parametrize(
        "run, semesters", [("goal_tree", 4), ("deadline_tree", 3)]
    )
    def test_tree_nodes_in_one_state_share_status_kind_and_moves(self, run, semesters):
        catalog = brandeis_catalog()
        start = start_term_for_semesters(semesters)
        if run == "goal_tree":
            graph = generate_goal_driven(
                catalog, start, brandeis_major_goal(), EVALUATION_END_TERM
            ).graph
        else:
            graph = generate_deadline_driven(catalog, start, EVALUATION_END_TERM).graph
        by_state = {}
        outcome = {}
        for node_id in graph.node_ids():
            status = graph.status(node_id)
            assert by_state.setdefault((status.term, status.completed), status) is status
            children = graph.children(node_id)
            moves = (
                graph.terminal_kind(node_id),
                [graph.selection_into(child) for child in children],
                [id(graph.status(child)) for child in children],
            )
            assert outcome.setdefault(id(status), moves) == moves
        assert len(by_state) < graph.num_nodes  # transposed paths meet

    @pytest.mark.parametrize(
        "run, semesters", [("goal_tree", 4), ("deadline_tree", 3)]
    )
    def test_tree_nodes_share_one_set_per_value(self, run, semesters):
        catalog = brandeis_catalog()
        start = start_term_for_semesters(semesters)
        if run == "goal_tree":
            graph = generate_goal_driven(
                catalog, start, brandeis_major_goal(), EVALUATION_END_TERM
            ).graph
        else:
            graph = generate_deadline_driven(catalog, start, EVALUATION_END_TERM).graph
        sets = [graph.status(node_id).completed for node_id in graph.node_ids()]
        distinct = len(set(sets))
        assert distinct < len(sets)
        assert len({id(completed) for completed in sets}) == distinct

    @pytest.mark.parametrize(
        "run", ["goal_tree", "deadline_tree", "ranked", "frontier_goal", "frontier_deadline"]
    )
    def test_expander_keeps_no_table(self, monkeypatch, run):
        # Goal runs need 4 semesters to expand at all; deadline runs
        # expand plenty in 3.  Every call builds new sets, equal values
        # included: only the tree shares them, after the call.
        successors = Expander.successors
        built = []

        def recording(self, status, required_minimum=0):
            for selection, completed in successors(self, status, required_minimum):
                if selection:  # an empty move keeps its parent's set
                    built.append(completed)
                yield selection, completed

        monkeypatch.setattr(Expander, "successors", recording)
        catalog = brandeis_catalog()
        start = start_term_for_semesters(3 if "deadline" in run else 4)
        TestOptionsOnFirstRead.RUNS[run](catalog, start, ExplorationConfig(), None)
        assert len({id(completed) for completed in built}) == len(built)
        if "deadline" in run:
            assert len(set(built)) < len(built)  # equal values, built twice


class TestStatusesBuiltWhereDecided:
    """A status is built only for a node an engine decides: best-first
    search builds one per popped node, the frontier one per decided state
    and the tree one per distinct ``(term, X)``, however many moves the
    expansions yield."""

    @pytest.fixture
    def counts(self, monkeypatch):
        built, decided = [], []
        deferred = EnrollmentStatus.deferred.__func__
        decide = NodeStep.decide

        def counting_deferred(cls, term, completed, expander):
            built.append((term, completed))
            return deferred(cls, term, completed, expander)

        def counting_decide(self, status, ref, multiplicity=1):
            decided.append((status.term, status.completed))
            return decide(self, status, ref, multiplicity)

        monkeypatch.setattr(EnrollmentStatus, "deferred", classmethod(counting_deferred))
        monkeypatch.setattr(NodeStep, "decide", counting_decide)
        return built, decided

    def test_ranked_builds_one_status_per_popped_node(self, counts):
        built, decided = counts
        result = generate_ranked(
            brandeis_catalog(), start_term_for_semesters(5), brandeis_major_goal(),
            EVALUATION_END_TERM, 10, TimeRanking(),
        )
        assert len(result) == 10
        assert len(built) <= len(decided) + 1
        assert result.stats.nodes_created > 2 * len(decided)  # most are never popped

    @pytest.mark.parametrize("with_goal", [True, False])
    def test_frontier_builds_one_status_per_decided_state(self, counts, with_goal):
        built, decided = counts
        catalog = brandeis_catalog()
        if with_goal:
            result = frontier_count_goal_paths(
                catalog, start_term_for_semesters(4), brandeis_major_goal(),
                EVALUATION_END_TERM,
            )
        else:
            result = frontier_count_deadline_paths(
                catalog, start_term_for_semesters(3), EVALUATION_END_TERM
            )
        assert built == decided
        assert len(built) == result.total_states

    @pytest.mark.parametrize(
        "run, semesters", [("goal_tree", 4), ("deadline_tree", 3)]
    )
    def test_tree_builds_one_status_per_distinct_state(self, counts, run, semesters):
        built, _decided = counts
        start = start_term_for_semesters(semesters)
        catalog = brandeis_catalog()
        if run == "goal_tree":
            graph = generate_goal_driven(
                catalog, start, brandeis_major_goal(), EVALUATION_END_TERM
            ).graph
        else:
            graph = generate_deadline_driven(catalog, start, EVALUATION_END_TERM).graph
        statuses = [graph.status(node_id) for node_id in graph.node_ids()]
        states = {(status.term, status.completed) for status in statuses}
        assert sorted(built, key=repr) == sorted(states, key=repr)
        assert len(states) < graph.num_nodes


class TestOptionsOnFirstRead:
    """Statuses derive ``Y`` on first read; schedule errors stay eager."""

    def test_options_derived_once_on_first_read(self, fig3_catalog):
        registry = MetricsRegistry()
        expander = Expander(
            fig3_catalog, S13, ExplorationConfig(), obs=Observability(metrics=registry)
        )
        derived = registry.get("repro_option_sets_computed_total")
        root = expander.initial_status(F11)
        assert derived.value == 0
        children = dict(expander.successors(root))
        assert derived.value == 1  # the root's, read to enumerate selections
        child = expander.initial_status(S12, children[frozenset({"11A", "29A"})])
        assert child.options == {"21A"}
        assert child.options == {"21A"}
        assert derived.value == 2

    # -- eager schedule errors -------------------------------------------------

    GHOST = "GHOST 1a"
    RUNS = {
        "goal_tree": lambda cat, start, cfg, obs: generate_goal_driven(
            cat, start, brandeis_major_goal(), EVALUATION_END_TERM, config=cfg, obs=obs
        ).path_count,
        "deadline_tree": lambda cat, start, cfg, obs: generate_deadline_driven(
            cat, start, EVALUATION_END_TERM, config=cfg, obs=obs
        ).path_count,
        "ranked": lambda cat, start, cfg, obs: len(
            generate_ranked(
                cat, start, brandeis_major_goal(), EVALUATION_END_TERM, 3,
                TimeRanking(), config=cfg, obs=obs,
            )
        ),
        "frontier_goal": lambda cat, start, cfg, obs: frontier_count_goal_paths(
            cat, start, brandeis_major_goal(), EVALUATION_END_TERM, config=cfg, obs=obs
        ).path_count,
        "frontier_deadline": lambda cat, start, cfg, obs: frontier_count_deadline_paths(
            cat, start, EVALUATION_END_TERM, config=cfg, obs=obs
        ).path_count,
    }

    def _ghost_config(self, catalog, **kwargs):
        # The ghost is offered only at the deadline term, where no node is
        # ever expanded, so deriving Y lazily would never meet it.
        ghost = Schedule({self.GHOST: {EVALUATION_END_TERM}})
        return ExplorationConfig(schedule=catalog.schedule.merged_with(ghost), **kwargs)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_unknown_scheduled_course_raises_before_the_first_node(self, run):
        catalog = brandeis_catalog()
        sink = InMemorySink()
        obs = Observability(tracer=Tracer(sinks=[sink]))
        start = start_term_for_semesters(4)
        with pytest.raises(UnknownCourseError, match="schedule entry") as info:
            self.RUNS[run](catalog, start, self._ghost_config(catalog), obs)
        assert info.value.course_id == self.GHOST
        assert sink.records == []  # the run span never opened

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_avoided_unknown_scheduled_course_runs(self, run):
        catalog = brandeis_catalog()
        start = start_term_for_semesters(3 if "deadline" in run else 4)
        config = self._ghost_config(catalog, avoid_courses={self.GHOST})
        expected = self.RUNS[run](catalog, start, ExplorationConfig(), None)
        assert self.RUNS[run](catalog, start, config, None) == expected > 0

    # -- one derivation per expanded node ------------------------------------------

    @pytest.mark.parametrize(
        "run, start, derived",
        [
            ("goal_tree", Term(2013, "Fall"), 119),
            ("frontier_goal", Term(2013, "Fall"), 119),
            ("frontier_deadline", Term(2014, "Spring"), 48),
        ],
    )
    def test_option_sets_derived_only_for_expanded_nodes(self, run, start, derived):
        registry = MetricsRegistry()
        config = ExplorationConfig(max_courses_per_term=3)
        self.RUNS[run](brandeis_catalog(), start, config, Observability(metrics=registry))

        def value(name, **labels):
            metric = registry.get(name, labels)
            return metric.value if metric is not None else 0

        assert value("repro_option_sets_computed_total") == derived
        terminals = sum(
            value("repro_terminals_total", kind=kind) for kind in ("goal", "deadline", "pruned")
        )
        assert derived == value("repro_nodes_created_total") - terminals
