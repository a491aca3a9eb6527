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

/// `wake_at` is a bare timer for a task that keeps its own deadlines (a
/// simnet delivery pump): it fires at its instant in `(instant,
/// registration)` order among `sleep_until`s, fires once, wakes in the
/// current instant when the instant is not in the future — and the task it
/// wakes, parked with no timer armed, does not hold the run loop.
#[test]
fn wake_at_is_a_one_shot_timer_and_a_parked_task_does_not_hold_the_loop() {
    use std::cell::RefCell;
    use std::future::poll_fn;
    use std::task::{Poll, Waker};

    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();
    let waker: Rc<RefCell<Option<Waker>>> = Rc::default();
    let (log2, waker2) = (log.clone(), waker.clone());
    sim.spawn(poll_fn(move |cx| {
        log2.borrow_mut().push(("parked", simcore::now()));
        *waker2.borrow_mut() = Some(cx.waker().clone());
        Poll::<()>::Pending
    }));
    assert_eq!(sim.run(), SimTime::ZERO, "parked with no timer: quiescent");
    assert_eq!((sim.live_tasks(), sim.pending_timers()), (1, 0));
    assert_eq!(sim.next_event_time(), None);
    let waker = waker.borrow().clone().expect("polled once");
    log.borrow_mut().clear();

    let log3 = log.clone();
    let mark = move |name: &'static str, us: u64| {
        let log = log3.clone();
        simcore::spawn(async move {
            simcore::sleep_until(at_micros(us)).await;
            log.borrow_mut().push((name, simcore::now()));
        });
    };
    let (log2, sim2) = (log.clone(), sim.clone());
    sim.block_on(async move {
        // Three timers for 5 µs, registered in this order; the sleepers arm
        // theirs at their first poll, hence the yields.
        mark("before", 5);
        simcore::yield_now().await;
        simcore::wake_at(at_micros(5), &waker);
        mark("after", 5);
        simcore::yield_now().await;
        assert_eq!(sim2.pending_timers(), 3);

        simcore::sleep_until(at_micros(7)).await;
        assert_eq!(sim2.pending_timers(), 0, "fired once, nothing re-armed");
        // Not in the future: woken in the current instant, no timer armed.
        simcore::wake_at(at_micros(3), &waker);
        simcore::wake_at(at_micros(7), &waker);
        assert_eq!(sim2.pending_timers(), 0);
        simcore::yield_now().await;
        log2.borrow_mut().push(("driver", simcore::now()));
    });
    assert_eq!(
        *log.borrow(),
        vec![
            ("before", at_micros(5)),
            ("parked", at_micros(5)),
            ("after", at_micros(5)),
            ("parked", at_micros(7)),
            ("driver", at_micros(7)),
        ]
    );
    // `block_on` returned and `run` returns at once: the parked task is
    // live, but it is not an event.
    assert_eq!(sim.run(), at_micros(7));
    assert_eq!((sim.live_tasks(), sim.next_event_time()), (1, None));
}
