//! A bounded multi-producer multi-consumer queue on `Mutex` + `Condvar`.
//!
//! The server's worker pool needs exactly this shape: an acceptor thread
//! pushes work (blocking when the pool is saturated — backpressure instead
//! of unbounded growth) and a fixed set of workers pop until the queue is
//! closed and drained. `std::sync::mpsc::sync_channel` is bounded but
//! single-consumer; this queue is shareable by reference from any number
//! of threads.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a [`BoundedQueue::try_push`] declined an item. Both variants hand
/// the item back so the caller can respond to its originator (e.g. an
/// `overloaded` envelope for a shed connection).
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity right now — shed or retry later.
    Full(T),
    /// The queue is closed — no item will ever be accepted again.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// The declined item, regardless of why.
    pub fn into_item(self) -> T {
        match self {
            TryPushError::Full(item) | TryPushError::Closed(item) => item,
        }
    }
}

/// A bounded FIFO queue, shareable across threads by reference.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    /// Signaled when an item is taken (room for producers).
    not_full: Condvar,
    /// Signaled when an item arrives or the queue closes (work for
    /// consumers, or permission to exit).
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Block until there is room, then enqueue. Returns `Err(item)` if the
    /// queue was closed (the item is handed back to the caller).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap();
        while inner.items.len() >= self.capacity && !inner.closed {
            inner = self.not_full.wait(inner).unwrap();
        }
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueue without blocking: admission control's primitive. A full
    /// queue returns [`TryPushError::Full`] *immediately* instead of
    /// parking the caller — the producer (e.g. a server's accept loop)
    /// stays responsive and decides what to do with the shed item.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block until an item is available or the queue is closed *and*
    /// drained. `None` means no item will ever arrive again — the consumer
    /// should exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Close the queue: producers fail fast, consumers drain what is left
    /// and then receive `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently waiting (racy by nature; for stats only).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::{BoundedQueue, TryPushError};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err("b"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn producers_block_on_a_full_queue_until_consumers_take() {
        let q = BoundedQueue::new(1);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Second push blocks until the consumer below pops.
                q.push(10).unwrap();
                q.push(20).unwrap();
                q.close();
            });
            scope.spawn(|| {
                while let Some(_item) = q.pop() {
                    consumed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        });
        assert_eq!(consumed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn try_push_sheds_on_a_full_queue_without_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // Full: the item comes straight back, no parking.
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.len(), 2);
        // Draining one slot readmits.
        assert_eq!(q.pop(), Some(1));
        q.try_push(4).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn try_push_on_a_closed_queue_reports_closed_even_when_full() {
        let q = BoundedQueue::new(1);
        q.try_push("queued").unwrap();
        q.close();
        // Close wins over full: the producer must learn the queue is gone
        // for good, not keep retrying a "temporarily" full queue.
        let err = q.try_push("late").unwrap_err();
        assert_eq!(err, TryPushError::Closed("late"));
        assert_eq!(err.into_item(), "late");
        // The queued item still drains; then consumers see the close.
        assert_eq!(q.pop(), Some("queued"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_while_shedding_never_loses_or_duplicates_items() {
        // Producers shed against a tiny queue while a consumer drains and
        // the queue closes mid-flight: every accepted item is delivered
        // exactly once, every shed item is handed back.
        let q = BoundedQueue::new(2);
        let delivered = AtomicUsize::new(0);
        let accepted = AtomicUsize::new(0);
        let shed = AtomicUsize::new(0);
        let producers_left = AtomicUsize::new(3);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (q, accepted, shed, left) = (&q, &accepted, &shed, &producers_left);
                scope.spawn(move || {
                    for i in 0..200 {
                        match q.try_push(i) {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(TryPushError::Full(_)) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(TryPushError::Closed(_)) => break,
                        }
                    }
                    // The producers may all finish with fewer than 100
                    // items accepted (they shed while the consumer is
                    // descheduled); the last one closes the queue so the
                    // consumer's first loop cannot block in `pop` forever.
                    if left.fetch_sub(1, Ordering::AcqRel) == 1 {
                        q.close();
                    }
                });
            }
            let (q, delivered) = (&q, &delivered);
            scope.spawn(move || {
                // Drain roughly half, then close mid-stream; the contract
                // is that the already-accepted remainder still drains.
                for _ in 0..100 {
                    if q.pop().is_none() {
                        break;
                    }
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
                q.close();
                while q.pop().is_some() {
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            accepted.load(Ordering::Relaxed),
            "every accepted item is delivered exactly once"
        );
        assert!(shed.load(Ordering::Relaxed) > 0, "the tiny queue must shed");
    }

    #[test]
    fn fifo_is_preserved_under_mixed_push_and_try_push() {
        let q = BoundedQueue::new(8);
        q.push(1).unwrap();
        q.try_push(2).unwrap();
        q.push(3).unwrap();
        q.try_push(4).unwrap();
        for expect in 1..=4 {
            assert_eq!(q.pop(), Some(expect));
        }
        // Shed items leave no hole in the order.
        let q = BoundedQueue::new(2);
        q.push(10).unwrap();
        q.try_push(11).unwrap();
        assert!(matches!(q.try_push(12), Err(TryPushError::Full(12))));
        assert_eq!(q.pop(), Some(10));
        q.try_push(13).unwrap();
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(13));
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything_once() {
        let q = BoundedQueue::new(3);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..4 {
                let q = &q;
                scope.spawn(move || {
                    for i in 0..25 {
                        q.push(p * 100 + i).unwrap();
                    }
                });
            }
            for _ in 0..3 {
                let q = &q;
                let total = &total;
                scope.spawn(move || {
                    while q.pop().is_some() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Close once everything is delivered so the consumers exit.
            let q = &q;
            let total = &total;
            scope.spawn(move || loop {
                if total.load(Ordering::Relaxed) >= 100 && q.is_empty() {
                    q.close();
                    break;
                }
                std::thread::yield_now();
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }
}
