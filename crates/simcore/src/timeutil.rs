//! Time-based combinators: [`timeout`].

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::{now, sleep_until, Sleep};

/// Error returned by [`timeout`] when the deadline elapses first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Await `fut`, but give up after `dur` of virtual time.
///
/// ```
/// use simcore::{Sim, timeout, sleep};
/// use std::time::Duration;
///
/// let sim = Sim::new();
/// let (fast, slow) = sim.block_on(async {
///     let fast = timeout(Duration::from_micros(10), async { 1 }).await;
///     let slow = timeout(Duration::from_micros(10), sleep(Duration::from_secs(1))).await;
///     (fast, slow)
/// });
/// assert_eq!(fast, Ok(1));
/// assert!(slow.is_err());
/// ```
pub fn timeout<F: Future>(dur: Duration, fut: F) -> Timeout<F> {
    Timeout {
        fut,
        sleep: sleep_until(now() + dur),
    }
}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    fut: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: standard structural pinning; neither field is moved out.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        if let Poll::Ready(v) = fut.poll(cx) {
            return Poll::Ready(Ok(v));
        }
        let sleep = unsafe { Pin::new_unchecked(&mut this.sleep) };
        match sleep.poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, Sim};

    #[test]
    fn timeout_passes_through_fast_futures() {
        let sim = Sim::new();
        let (r, at) = sim.block_on(async {
            let r = timeout(Duration::from_micros(100), async {
                sleep(Duration::from_micros(10)).await;
                7
            })
            .await;
            (r, crate::now().nanos())
        });
        assert_eq!(r, Ok(7));
        assert_eq!(at, 10_000, "completes at the future's time");
    }

    #[test]
    fn timeout_fires_on_slow_futures() {
        let sim = Sim::new();
        let (r, at) = sim.block_on(async {
            let r = timeout(Duration::from_micros(10), sleep(Duration::from_secs(5))).await;
            (r, crate::now().nanos())
        });
        assert_eq!(r, Err(Elapsed));
        assert_eq!(at, 10_000, "gives up exactly at the deadline");
    }
}
