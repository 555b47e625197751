"""Live telemetry walkthrough: watch, scrape, and reap an exploration.

Run with::

    python examples/live_progress.py

Three acts:

1. A goal-driven run with a ``ProgressTracker`` attached and a
   ``MetricsServer`` scraping it over localhost HTTP while it runs —
   the same ``/metrics`` + ``/progress`` endpoints a Prometheus
   scraper (or plain ``curl``) would hit.
2. A node limit (``ExplorationConfig.max_nodes``) killing an
   otherwise-exhaustive deadline run, showing the partial progress
   snapshot carried by the ``BudgetExceededError``.
3. A ``Watchdog`` cancelling a runaway run from another thread through
   its progress tracker.
"""

import json
import threading
import urllib.request

from repro.data import brandeis_catalog, brandeis_major_goal
from repro.errors import BudgetExceededError, RunCancelledError
from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    ProgressTracker,
    Watchdog,
)
from repro.semester import Term
from repro.system.navigator import CourseNavigator

START, END = Term(2013, "Fall"), Term(2015, "Fall")
LONG_START = Term(2012, "Fall")  # exhaustive over this horizon = minutes


def act_one_scrape_a_live_run() -> None:
    print("=" * 72)
    print("1. Scraping a live run over HTTP")
    print("=" * 72)
    registry = MetricsRegistry()
    tracker = ProgressTracker()
    navigator = CourseNavigator(
        brandeis_catalog(), metrics=registry, progress=tracker
    )

    samples = []
    stop = threading.Event()

    def scraper(url: str) -> None:
        while not stop.is_set():
            with urllib.request.urlopen(url + "/progress", timeout=5) as response:
                samples.append(json.loads(response.read()))

    with MetricsServer(registry=registry, progress=tracker) as server:
        print(f"serving {server.url}/metrics and {server.url}/progress")
        thread = threading.Thread(target=scraper, args=(server.url,), daemon=True)
        thread.start()
        result = navigator.explore_goal(START, brandeis_major_goal(), END)
        stop.set()
        thread.join()

    print(f"run finished: {result.path_count:,} goal paths")
    print(f"scraped {len(samples)} snapshots while it ran; nodes_seen went "
          f"{samples[0]['nodes_seen']} -> {samples[-1]['nodes_seen']}")
    final = tracker.snapshot()
    print("final progress line:", final.render_line())


def act_two_node_limit() -> None:
    print()
    print("=" * 72)
    print("2. A node limit reaping an exhaustive deadline run")
    print("=" * 72)
    # The tracker is optional; with it, the error carries a snapshot.
    navigator = CourseNavigator(brandeis_catalog(), progress=ProgressTracker())
    try:
        navigator.explore_deadline(LONG_START, END, max_nodes=5_000)
    except BudgetExceededError as exc:
        print(f"reaped: {exc}")
        snapshot = exc.progress
        print("partial progress:", snapshot.render_line())
        print(f"  deepest semester reached: {snapshot.depth}/{snapshot.horizon}")
        print(f"  run limits: {snapshot.budget}")


def act_three_watchdog() -> None:
    print()
    print("=" * 72)
    print("3. A watchdog cancelling a runaway run from another thread")
    print("=" * 72)
    tracker = ProgressTracker()  # the run has no limits of its own
    navigator = CourseNavigator(brandeis_catalog(), progress=tracker)
    try:
        with Watchdog(tracker, timeout=0.25):
            navigator.explore_deadline(LONG_START, END)
    except RunCancelledError as exc:
        print(f"cancelled: {exc}")
        print("partial progress:", exc.progress.render_line())


def main() -> None:
    act_one_scrape_a_live_run()
    act_two_node_limit()
    act_three_watchdog()


if __name__ == "__main__":
    main()
