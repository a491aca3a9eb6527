//! Regression tests pinning the `run_until`/`run_for` boundary semantics
//! that harnesses stepping a simulation in slices lean on: timers exactly
//! at the limit, the final clock value, `next_event_time`, run-loop
//! re-entrancy, and `scope`.

use simcore::{Duration, Sim, SimTime};
use std::cell::{Cell, RefCell};
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

/// A source holding a list of deadlines, logging each firing into `log`.
/// It settles its own deadlines up to the horizon it is given: each firing
/// retires every deadline before `until`, and `horizons` keeps each
/// firing's `(now, until)`.
struct Deadlines {
    due: RefCell<Vec<SimTime>>,
    log: Rc<RefCell<Vec<(&'static str, SimTime)>>>,
    horizons: RefCell<Vec<(SimTime, SimTime)>>,
    /// Sent to at each firing, waking the task parked on its receiver.
    wake: Option<simcore::sync::mpsc::Sender<()>>,
}

impl simcore::Source for Deadlines {
    fn next_at(&self) -> Option<SimTime> {
        self.due.borrow().iter().min().copied()
    }

    fn fire(&self, now: SimTime, until: SimTime) {
        self.due.borrow_mut().retain(|&at| at > now && at >= until);
        self.log.borrow_mut().push(("source", now));
        self.horizons.borrow_mut().push((now, until));
        if let Some(tx) = &self.wake {
            let _ = tx.send(());
        }
    }
}

fn deadlines(at: &[u64], log: &Rc<RefCell<Vec<(&'static str, SimTime)>>>) -> Rc<Deadlines> {
    Rc::new(Deadlines {
        due: RefCell::new(at.iter().map(|&us| at_micros(us)).collect()),
        log: log.clone(),
        horizons: RefCell::default(),
        wake: None,
    })
}

#[test]
fn a_due_source_fires_before_the_timers_and_tasks_of_its_instant() {
    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();
    // The timer is armed before the source is registered: the source still
    // goes first at 5 µs, and a task spawned by the source's instant runs
    // after both.
    let log2 = log.clone();
    sim.spawn(async move {
        simcore::sleep_until(at_micros(5)).await;
        log2.borrow_mut().push(("timer", simcore::now()));
    });
    sim.run_until(at_micros(1));
    sim.add_source(deadlines(&[5, 8], &log));
    assert_eq!(sim.run(), at_micros(8));
    assert_eq!(
        *log.borrow(),
        vec![
            ("source", at_micros(5)),
            ("timer", at_micros(5)),
            ("source", at_micros(8)),
        ]
    );
}

#[test]
fn a_source_with_nothing_due_does_not_hold_the_run_loop() {
    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();
    let source = deadlines(&[], &log);
    sim.scope(|| simcore::add_source(source.clone()));
    assert_eq!(sim.run(), SimTime::ZERO, "registered but idle: quiescent");
    assert_eq!(sim.next_event_time(), None);
    // It gets work later: the next run goes to it, and stops after it.
    source.due.borrow_mut().push(at_micros(4));
    assert_eq!(sim.run(), at_micros(4));
    assert_eq!(*log.borrow(), vec![("source", at_micros(4))]);
    assert_eq!((sim.live_tasks(), sim.pending_timers()), (0, 0));
}

#[test]
fn next_event_time_counts_the_sources_deadlines() {
    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();
    sim.add_source(deadlines(&[9], &log));
    assert_eq!(sim.next_event_time(), Some(at_micros(9)));
    let hits = Rc::new(Cell::new(0));
    mark_at(&sim, 6, &hits);
    sim.run_until(at_micros(1));
    assert_eq!(
        sim.next_event_time(),
        Some(at_micros(6)),
        "the timer is first"
    );
    sim.run_until(at_micros(7));
    assert_eq!(sim.next_event_time(), Some(at_micros(9)));
    sim.run();
    assert_eq!(sim.next_event_time(), None);
    assert_eq!((hits.get(), log.borrow().len()), (1, 1));
}

#[test]
fn a_source_never_settles_past_the_next_timer() {
    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();
    let hits = Rc::new(Cell::new(0));
    mark_at(&sim, 7, &hits);
    let source = deadlines(&[2, 4, 6, 7, 9], &log);
    sim.add_source(source.clone());
    sim.run();
    // 2, 4 and 6 in one firing; the timer's instant is its own, and the
    // source still goes first there; nothing is left after it.
    let t = at_micros;
    assert_eq!(
        *source.horizons.borrow(),
        vec![(t(2), t(7)), (t(7), t(7)), (t(9), SimTime::MAX)]
    );
    assert_eq!(hits.get(), 1);
}

#[test]
fn a_source_never_settles_past_the_run_limit() {
    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();
    let source = deadlines(&[2, 4, 5, 6], &log);
    sim.add_source(source.clone());
    sim.run_until(at_micros(5));
    assert_eq!(*source.due.borrow(), vec![at_micros(6)], "5 fired at 5");
    sim.run();
    let t = at_micros;
    assert_eq!(
        *source.horizons.borrow(),
        vec![(t(2), t(5)), (t(5), t(5)), (t(6), SimTime::MAX)]
    );
}

#[test]
fn the_horizon_is_now_while_a_task_is_ready() {
    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();
    // The first source wakes a parked task when it fires at 3 µs; the
    // second, due then too, fires after it with that task ready.
    let (tx, mut rx) = simcore::sync::mpsc::channel::<()>();
    let first = Rc::new(Deadlines {
        wake: Some(tx),
        ..Rc::into_inner(deadlines(&[3], &log)).expect("one handle")
    });
    let second = deadlines(&[3, 5, 8], &log);
    let log2 = log.clone();
    sim.spawn(async move {
        rx.recv().await;
        log2.borrow_mut().push(("task", simcore::now()));
    });
    sim.add_source(first.clone());
    sim.add_source(second.clone());
    sim.run();
    let t = at_micros;
    // The first is told the second is due at its instant; the second, that
    // the task is. Once the task has run, 5 and 8 go in one firing.
    assert_eq!(*first.horizons.borrow(), vec![(t(3), t(3))]);
    assert_eq!(
        *second.horizons.borrow(),
        vec![(t(3), t(3)), (t(5), SimTime::MAX)]
    );
    assert_eq!(
        *log.borrow(),
        vec![
            ("source", t(3)),
            ("source", t(3)),
            ("task", t(3)),
            ("source", t(5)),
        ]
    );
}
