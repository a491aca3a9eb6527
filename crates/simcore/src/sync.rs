//! Virtual-time-aware synchronization primitives.
//!
//! Everything here is single-threaded (the executor never runs tasks in
//! parallel) but tasks interleave at `.await` points, so these primitives
//! provide the same *logical* coordination as their `tokio` counterparts:
//! [`oneshot`] for request/response completion, [`mpsc`] for service mailboxes
//! and simulated wires, and [`Notify`] for edge-triggered signaling. Limited
//! resources such as CPU cores are bookings, not locks: see
//! [`crate::resource`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------------

/// Single-producer, single-consumer, single-value channel.
pub mod oneshot {
    use super::*;

    struct Slot<T> {
        value: Option<T>,
        waker: Option<Waker>,
        sender_dropped: bool,
        receiver_dropped: bool,
    }

    /// Sending half; consumes itself on send.
    pub struct Sender<T> {
        slot: Rc<RefCell<Slot<T>>>,
    }

    /// Receiving half; a future resolving to `Result<T, Canceled>`.
    pub struct Receiver<T> {
        slot: Rc<RefCell<Slot<T>>>,
    }

    /// Error returned when the sender was dropped without sending.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct Canceled;

    impl std::fmt::Display for Canceled {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "oneshot canceled")
        }
    }

    impl std::error::Error for Canceled {}

    /// Create a new oneshot channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let slot = Rc::new(RefCell::new(Slot {
            value: None,
            waker: None,
            sender_dropped: false,
            receiver_dropped: false,
        }));
        (Sender { slot: slot.clone() }, Receiver { slot })
    }

    impl<T> Sender<T> {
        /// Send the value, waking the receiver. Returns `Err(value)` if the
        /// receiver has been dropped.
        pub fn send(self, value: T) -> Result<(), T> {
            let mut s = self.slot.borrow_mut();
            if s.receiver_dropped {
                return Err(value);
            }
            s.value = Some(value);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self.slot.borrow_mut();
            s.sender_dropped = true;
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.slot.borrow_mut().receiver_dropped = true;
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, Canceled>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut s = self.slot.borrow_mut();
            if let Some(v) = s.value.take() {
                return Poll::Ready(Ok(v));
            }
            if s.sender_dropped {
                return Poll::Ready(Err(Canceled));
            }
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// mpsc
// ---------------------------------------------------------------------------

/// Multi-producer, single-consumer FIFO channel (unbounded).
pub mod mpsc {
    use super::*;

    struct Chan<T> {
        queue: VecDeque<T>,
        recv_waker: Option<Waker>,
        senders: usize,
        receiver_alive: bool,
    }

    /// Sending half (cloneable).
    pub struct Sender<T> {
        chan: Rc<RefCell<Chan<T>>>,
    }

    /// Receiving half (unique).
    pub struct Receiver<T> {
        chan: Rc<RefCell<Chan<T>>>,
    }

    /// Error: the receiver was dropped.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "mpsc receiver dropped")
        }
    }

    /// Create a new unbounded channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Rc::new(RefCell::new(Chan {
            queue: VecDeque::new(),
            recv_waker: None,
            senders: 1,
            receiver_alive: true,
        }));
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.borrow_mut().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueue a value, waking the receiver if it is waiting.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut c = self.chan.borrow_mut();
            if !c.receiver_alive {
                return Err(SendError(value));
            }
            c.queue.push_back(value);
            if let Some(w) = c.recv_waker.take() {
                w.wake();
            }
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut c = self.chan.borrow_mut();
            c.senders -= 1;
            if c.senders == 0 {
                if let Some(w) = c.recv_waker.take() {
                    w.wake();
                }
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.borrow_mut().receiver_alive = false;
        }
    }

    impl<T> Receiver<T> {
        /// Receive the next value; resolves to `None` once all senders are
        /// dropped and the queue is drained.
        pub fn recv(&mut self) -> Recv<'_, T> {
            Recv { rx: self }
        }

        /// Non-blocking receive.
        pub fn try_recv(&mut self) -> Option<T> {
            self.chan.borrow_mut().queue.pop_front()
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.chan.borrow().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Future returned by [`Receiver::recv`].
    pub struct Recv<'a, T> {
        rx: &'a mut Receiver<T>,
    }

    impl<T> Future for Recv<'_, T> {
        type Output = Option<T>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut c = self.rx.chan.borrow_mut();
            if let Some(v) = c.queue.pop_front() {
                return Poll::Ready(Some(v));
            }
            if c.senders == 0 {
                return Poll::Ready(None);
            }
            c.recv_waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

/// Which call took a waiter off the queue.
#[derive(Clone, Copy)]
enum WokenBy {
    One,
    All,
}

struct NotifyWaiter {
    waker: Waker,
    woken: Option<WokenBy>,
}

struct NotifyState {
    permits: u64,
    waiters: VecDeque<Rc<RefCell<NotifyWaiter>>>,
}

fn wake_waiter(waiter: &RefCell<NotifyWaiter>, by: WokenBy) {
    let mut w = waiter.borrow_mut();
    w.woken = Some(by);
    w.waker.wake_by_ref();
}

/// Edge-triggered notification, in the style of `tokio::sync::Notify`.
///
/// `notify_one` wakes one waiter, or stores one permit if no one is waiting
/// (so a waiter arriving later does not miss the signal). A waiter dropped
/// before it is notified (a `timeout` around [`Notify::notified`] elapsing,
/// a cancelled call) leaves the queue; one dropped after `notify_one` chose
/// it but before it ran hands the notification to the next in line.
#[derive(Clone)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Create a new `Notify`.
    pub fn new() -> Notify {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                permits: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Wake one waiter (or bank a single permit).
    pub fn notify_one(&self) {
        let mut st = self.state.borrow_mut();
        match st.waiters.pop_front() {
            Some(w) => wake_waiter(&w, WokenBy::One),
            None => st.permits = st.permits.saturating_add(1),
        }
    }

    /// Wake all current waiters (does not bank permits).
    pub fn notify_all(&self) {
        let mut st = self.state.borrow_mut();
        for w in st.waiters.drain(..) {
            wake_waiter(&w, WokenBy::All);
        }
    }

    /// Wait for a notification.
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            waiter: None,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
    /// This future's queue entry, from its first pending poll until it
    /// observes the notification.
    waiter: Option<Rc<RefCell<NotifyWaiter>>>,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some(w) = &self.waiter {
            let mut wb = w.borrow_mut();
            if wb.woken.is_none() {
                // Polled for another reason (e.g. a sibling timer).
                wb.waker.clone_from(cx.waker());
                return Poll::Pending;
            }
            drop(wb);
            self.waiter = None;
            return Poll::Ready(());
        }
        let mut st = self.notify.state.borrow_mut();
        if st.permits > 0 {
            st.permits -= 1;
            return Poll::Ready(());
        }
        let waiter = Rc::new(RefCell::new(NotifyWaiter {
            waker: cx.waker().clone(),
            woken: None,
        }));
        st.waiters.push_back(waiter.clone());
        drop(st);
        self.waiter = Some(waiter);
        Poll::Pending
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        let Some(w) = self.waiter.take() else {
            return;
        };
        let woken = w.borrow().woken;
        match woken {
            None => self
                .notify
                .state
                .borrow_mut()
                .waiters
                .retain(|q| !Rc::ptr_eq(q, &w)),
            // Chosen by `notify_one` but never ran: the signal is not ours
            // to swallow.
            Some(WokenBy::One) => self.notify.notify_one(),
            Some(WokenBy::All) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, spawn, Sim};
    use std::time::Duration;

    #[test]
    fn oneshot_roundtrip() {
        let sim = Sim::new();
        let v = sim.block_on(async {
            let (tx, rx) = oneshot::channel();
            spawn(async move {
                sleep(Duration::from_nanos(10)).await;
                tx.send(99).unwrap();
            });
            rx.await.unwrap()
        });
        assert_eq!(v, 99);
    }

    #[test]
    fn oneshot_cancel_on_sender_drop() {
        let sim = Sim::new();
        let r = sim.block_on(async {
            let (tx, rx) = oneshot::channel::<u32>();
            drop(tx);
            rx.await
        });
        assert_eq!(r, Err(oneshot::Canceled));
    }

    #[test]
    fn oneshot_send_to_dropped_receiver_fails() {
        let (tx, rx) = oneshot::channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(5), Err(5));
    }

    #[test]
    fn mpsc_fifo_order() {
        let sim = Sim::new();
        let out = sim.block_on(async {
            let (tx, mut rx) = mpsc::channel();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mpsc_wakes_blocked_receiver() {
        let sim = Sim::new();
        let v = sim.block_on(async {
            let (tx, mut rx) = mpsc::channel();
            spawn(async move {
                sleep(Duration::from_micros(1)).await;
                tx.send("hello").unwrap();
            });
            rx.recv().await
        });
        assert_eq!(v, Some("hello"));
    }

    #[test]
    fn mpsc_send_after_receiver_drop_errors() {
        let (tx, rx) = mpsc::channel();
        drop(rx);
        assert!(tx.send(1u8).is_err());
    }

    #[test]
    fn mpsc_none_after_all_senders_drop() {
        let sim = Sim::new();
        let v = sim.block_on(async {
            let (tx, mut rx) = mpsc::channel::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            drop(tx2);
            rx.recv().await
        });
        assert_eq!(v, None);
    }

    #[test]
    fn notify_banks_one_permit() {
        let sim = Sim::new();
        let done = sim.block_on(async {
            let n = Notify::new();
            n.notify_one(); // no waiter yet: banked
            n.notified().await; // consumes the banked permit
            true
        });
        assert!(done);
    }

    #[test]
    fn notify_wakes_waiter() {
        let sim = Sim::new();
        let v = sim.block_on(async {
            let n = Notify::new();
            let n2 = n.clone();
            let h = spawn(async move {
                n2.notified().await;
                7
            });
            sleep(Duration::from_nanos(5)).await;
            n.notify_one();
            h.await
        });
        assert_eq!(v, 7);
    }

    /// A waiter that gives up (its `timeout` elapses) leaves the queue: the
    /// next `notify_one` reaches the live waiter behind it, not a dead waker.
    #[test]
    fn notify_one_skips_a_waiter_that_timed_out() {
        let sim = Sim::new();
        let n = Notify::new();
        let n1 = n.clone();
        let first =
            sim.spawn(async move { crate::timeout(Duration::from_nanos(10), n1.notified()).await });
        let n2 = n.clone();
        let second = sim.spawn(async move {
            sleep(Duration::from_nanos(20)).await;
            n2.notified().await;
            crate::now().nanos()
        });
        sim.spawn(async move {
            sleep(Duration::from_nanos(30)).await;
            n.notify_one();
        });
        sim.run();
        assert_eq!(first.try_take(), Some(Err(crate::Elapsed)));
        assert_eq!(second.try_take(), Some(30), "the live waiter slept through");
    }

    /// A waiter chosen by `notify_one` and dropped before it runs hands the
    /// notification on; one woken by `notify_all` banks nothing.
    #[test]
    fn notification_consumed_by_a_dropped_waiter_is_passed_on() {
        let sim = Sim::new();
        sim.block_on(async {
            let n = Notify::new();
            let waker = std::task::Waker::noop();
            let mut cx = Context::from_waker(waker);
            let mut chosen = Box::pin(n.notified());
            let mut next = Box::pin(n.notified());
            assert!(chosen.as_mut().poll(&mut cx).is_pending());
            assert!(next.as_mut().poll(&mut cx).is_pending());
            n.notify_one();
            drop(chosen);
            assert!(next.as_mut().poll(&mut cx).is_ready(), "signal lost");

            let mut a = Box::pin(n.notified());
            assert!(a.as_mut().poll(&mut cx).is_pending());
            n.notify_all();
            drop(a);
            let mut b = Box::pin(n.notified());
            assert!(b.as_mut().poll(&mut cx).is_pending(), "notify_all banked");
        });
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let sim = Sim::new();
        let count = Rc::new(RefCell::new(0));
        let n = Notify::new();
        for _ in 0..4 {
            let n = n.clone();
            let count = count.clone();
            sim.spawn(async move {
                n.notified().await;
                *count.borrow_mut() += 1;
            });
        }
        let n2 = n.clone();
        sim.spawn(async move {
            sleep(Duration::from_nanos(1)).await;
            n2.notify_all();
        });
        sim.run();
        assert_eq!(*count.borrow(), 4);
    }
}
