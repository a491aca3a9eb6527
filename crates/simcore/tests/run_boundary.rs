//! Regression tests pinning the `run_until`/`run_for` boundary semantics
//! that harnesses stepping a simulation in slices lean on: timers exactly
//! at the limit, the final clock value, `next_event_time`, run-loop
//! re-entrancy, and `scope`.

use simcore::{Duration, Sim, SimTime};
use std::cell::Cell;
use std::rc::Rc;

fn at_micros(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

/// Spawn a task recording into `hits` when its timer at `us` fires.
fn mark_at(sim: &Sim, us: u64, hits: &Rc<Cell<u64>>) {
    let hits = hits.clone();
    sim.spawn(async move {
        simcore::sleep_until(at_micros(us)).await;
        hits.set(hits.get() + 1);
    });
}

#[test]
fn run_until_includes_events_exactly_at_the_limit() {
    let sim = Sim::new();
    let hits = Rc::new(Cell::new(0));
    mark_at(&sim, 5, &hits);
    mark_at(&sim, 10, &hits); // exactly at the limit
    mark_at(&sim, 11, &hits); // past the limit
    sim.run_until(at_micros(10));
    assert_eq!(hits.get(), 2, "the event at the limit fires");
    assert_eq!(sim.now(), at_micros(10));
    sim.run();
    assert_eq!(hits.get(), 3);
}

#[test]
fn clock_lands_on_the_limit_even_without_events() {
    let sim = Sim::new();
    sim.run_until(at_micros(7));
    assert_eq!(sim.now(), at_micros(7));
    // run() with no events at all leaves the clock untouched.
    let idle = Sim::new();
    assert_eq!(idle.run(), SimTime::ZERO);
}

#[test]
fn run_for_accumulates_from_the_current_instant() {
    let sim = Sim::new();
    let hits = Rc::new(Cell::new(0));
    mark_at(&sim, 4, &hits);
    mark_at(&sim, 8, &hits);
    sim.run_for(Duration::from_micros(4));
    assert_eq!((hits.get(), sim.now()), (1, at_micros(4)));
    sim.run_for(Duration::from_micros(4));
    assert_eq!(
        (hits.get(), sim.now()),
        (2, at_micros(8)),
        "4+4 = 8, inclusive"
    );
}

#[test]
fn next_event_time_tracks_ready_then_timers_then_quiescence() {
    let sim = Sim::new();
    assert_eq!(sim.next_event_time(), None, "empty sim is quiescent");
    let hits = Rc::new(Cell::new(0));
    mark_at(&sim, 6, &hits);
    // The freshly spawned task is ready at the current instant.
    assert_eq!(sim.next_event_time(), Some(SimTime::ZERO));
    sim.run_until(at_micros(3));
    // Only the timer remains.
    assert_eq!(sim.next_event_time(), Some(at_micros(6)));
    sim.run();
    assert_eq!(sim.next_event_time(), None, "quiescent after the timer");
    // A permanently blocked task does not count as a pending event.
    let (_tx, mut rx) = simcore::sync::mpsc::channel::<u8>();
    sim.spawn(async move {
        rx.recv().await;
    });
    sim.run();
    assert_eq!(sim.next_event_time(), None);
    assert_eq!(sim.live_tasks(), 1, "...but it is still live");
}

#[test]
#[should_panic(expected = "re-entered")]
fn reentering_the_run_loop_from_a_task_panics() {
    let sim = Sim::new();
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.run_until(at_micros(1));
    });
    sim.run();
}

#[test]
fn scope_nests_setup_without_running() {
    let sim = Sim::new();
    let hits = Rc::new(Cell::new(0));
    let h2 = hits.clone();
    sim.scope(|| {
        // Free-function spawn resolves to this sim inside the scope.
        simcore::spawn(async move {
            simcore::sleep(Duration::from_micros(1)).await;
            h2.set(1);
        });
        assert_eq!(simcore::now(), SimTime::ZERO);
    });
    assert_eq!(hits.get(), 0, "scope itself runs nothing");
    sim.run();
    assert_eq!(hits.get(), 1);
}
