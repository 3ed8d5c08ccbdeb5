//! Bounded MPMC channel on `Mutex` + `Condvar` (std-only, no external
//! channel crates).
//!
//! Its one user is a session connection's outbox (`session.rs`): each
//! job's completion notifier sends the job's wire tag, and the
//! connection's writer thread receives it. A full outbox blocks the
//! sender, an empty one parks the writer, and `close()` ends the writer
//! once drained — senders fail fast, receivers consume what remains and
//! then see `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO channel.
pub(crate) struct Channel<T> {
    inner: Mutex<Inner<T>>,
    /// Signals receivers: an item arrived or the channel closed.
    ready: Condvar,
    /// Signals senders: capacity freed up or the channel closed.
    space: Condvar,
    capacity: usize,
}

impl<T> Channel<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity >= 1,
            "channel needs capacity for at least one item"
        );
        Self {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Buffered (sent, not yet received) item count.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("channel poisoned").queue.len()
    }

    /// Blocking send: waits for capacity. Returns the item back when the
    /// channel is closed (the caller owns cleanup of in-flight work).
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("channel poisoned");
        while inner.queue.len() >= self.capacity && !inner.closed {
            inner = self.space.wait(inner).expect("channel poisoned");
        }
        if inner.closed {
            return Err(value);
        }
        inner.queue.push_back(value);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking receive; `None` once the channel is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("channel poisoned");
        loop {
            if let Some(v) = inner.queue.pop_front() {
                self.space.notify_one();
                return Some(v);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("channel poisoned");
        }
    }

    /// Closes the channel: sends fail, receivers drain what remains.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("channel poisoned");
        inner.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_consumer() {
        let ch = Channel::new(8);
        for i in 0..5 {
            ch.send(i).unwrap();
        }
        let got: Vec<i32> = (0..5).map(|_| ch.recv().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn send_blocks_at_capacity_until_recv() {
        let ch = Arc::new(Channel::new(1));
        ch.send(0).unwrap();
        let ch2 = Arc::clone(&ch);
        let producer = std::thread::spawn(move || ch2.send(1));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ch.len(), 1, "second send must still be blocked");
        assert_eq!(ch.recv(), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(ch.recv(), Some(1));
    }

    #[test]
    fn close_drains_then_ends() {
        let ch = Channel::new(4);
        ch.send(7).unwrap();
        ch.close();
        assert_eq!(ch.send(8), Err(8));
        assert_eq!(ch.recv(), Some(7));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn close_unblocks_parked_receivers() {
        let ch = Arc::new(Channel::<u32>::new(2));
        let ch2 = Arc::clone(&ch);
        let consumer = std::thread::spawn(move || ch2.recv());
        std::thread::sleep(Duration::from_millis(20));
        ch.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn mpmc_stress_delivers_every_item_exactly_once() {
        let ch = Arc::new(Channel::new(3));
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 50;
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ch = Arc::clone(&ch);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        ch.send(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let ch = Arc::clone(&ch);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = ch.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        ch.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expect);
    }
}
