//! Per-actor mailboxes for the worker pool, with backpressure accounting.
//!
//! Each live actor owns one mailbox: a lazily grown `VecDeque` under a
//! mutex, plus the actor's `scheduled` flag. The flag is set under the same
//! lock as the push that finds the actor idle, so exactly one sender puts
//! the actor on the run queue and at most one worker runs it at a time.
//! That single-runner rule is what keeps per-source-per-destination FIFO:
//! a sender's pushes land in order and one worker pops them in order.
//!
//! The bound is a backpressure limit, not an allocation: an empty mailbox
//! holds no buffer. What a sender does at the bound depends on who it is
//! ([`AtBound`]): threads outside the pool block, the clock thread gets
//! the envelope back to retry, and pool workers enqueue past the bound
//! (a parked worker could deadlock the pool) and count the overrun.
//! Depth and high-water mark are mirrored into atomics for the sampler.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Shared depth counters of one mailbox.
#[derive(Debug, Default)]
pub struct MailboxGauges {
    depth: AtomicUsize,
    hwm: AtomicUsize,
}

impl MailboxGauges {
    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Highest depth ever observed.
    pub fn hwm(&self) -> usize {
        self.hwm.load(Ordering::Relaxed)
    }

    fn set(&self, depth: usize) {
        self.depth.store(depth, Ordering::Relaxed);
        self.hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// What a sender does when the mailbox already holds `capacity` items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtBound {
    /// Wait for the owner to drain (threads outside the worker pool).
    Block,
    /// Hand the item back (the clock thread retries it next tick).
    Refuse,
    /// Enqueue past the bound (pool workers, which must never park).
    Overrun,
}

/// Outcome of a mailbox push, for the sender's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued within the bound.
    Sent,
    /// Enqueued after blocking on, or overrunning, a full mailbox.
    SentParked,
    /// The receiving actor is gone.
    Dead,
}

/// A successful push: the accounting outcome, and whether the owner was
/// idle, in which case the caller must put it on the run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pushed {
    /// How the push went.
    pub outcome: PushOutcome,
    /// The owner was idle and is now marked scheduled.
    pub wake: bool,
}

/// What the running worker does with the actor after a turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnEnd {
    /// Mailbox empty: the actor is idle until the next push wakes it.
    Idle,
    /// More mail queued: put the actor back on the run queue.
    Again,
    /// Closed and drained: the actor is finished and may be dropped.
    Closed,
}

struct State<T> {
    queue: VecDeque<T>,
    /// On the run queue or being run by a worker.
    scheduled: bool,
    /// Killed (or panicked): no further pushes are accepted.
    closed: bool,
    /// External senders waiting for room.
    blocked: usize,
}

/// One actor's mailbox and scheduling flag.
pub struct Mailbox<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    gauges: MailboxGauges,
    capacity: usize,
}

impl<T> Mailbox<T> {
    /// A mailbox holding `first` with its owner marked scheduled: the
    /// spawner puts the new actor on the run queue itself.
    pub fn new_scheduled(capacity: usize, first: T) -> Mailbox<T> {
        let mut queue = VecDeque::new();
        queue.push_back(first);
        let gauges = MailboxGauges::default();
        gauges.set(1);
        Mailbox {
            state: Mutex::new(State {
                queue,
                scheduled: true,
                closed: false,
                blocked: 0,
            }),
            not_full: Condvar::new(),
            gauges,
            capacity: capacity.max(1),
        }
    }

    /// Depth and high-water gauges.
    pub fn gauges(&self) -> &MailboxGauges {
        &self.gauges
    }

    /// `false` once the mailbox is closed.
    pub fn is_open(&self) -> bool {
        !self.state.lock().unwrap().closed
    }

    /// Enqueues `v`. `Err(v)` only under [`AtBound::Refuse`] at the bound.
    pub fn push(&self, v: T, at_bound: AtBound) -> Result<Pushed, T> {
        let mut st = self.state.lock().unwrap();
        let mut outcome = PushOutcome::Sent;
        if st.queue.len() >= self.capacity && !st.closed {
            match at_bound {
                AtBound::Refuse => return Err(v),
                AtBound::Overrun => outcome = PushOutcome::SentParked,
                AtBound::Block => {
                    outcome = PushOutcome::SentParked;
                    st.blocked += 1;
                    while st.queue.len() >= self.capacity && !st.closed {
                        st = self.not_full.wait(st).unwrap();
                    }
                    st.blocked -= 1;
                }
            }
        }
        if st.closed {
            return Ok(Pushed {
                outcome: PushOutcome::Dead,
                wake: false,
            });
        }
        st.queue.push_back(v);
        self.gauges.set(st.queue.len());
        let wake = !std::mem::replace(&mut st.scheduled, true);
        Ok(Pushed { outcome, wake })
    }

    /// Moves up to `max` queued items into `out` (the running worker's
    /// batch), waking blocked senders once there is room again.
    pub fn take_batch(&self, max: usize, out: &mut Vec<T>) {
        let mut st = self.state.lock().unwrap();
        let n = st.queue.len().min(max);
        out.extend(st.queue.drain(..n));
        self.gauges.set(st.queue.len());
        if st.blocked > 0 && st.queue.len() < self.capacity {
            self.not_full.notify_all();
        }
    }

    /// Ends the running worker's turn; see [`TurnEnd`].
    pub fn end_turn(&self) -> TurnEnd {
        let mut st = self.state.lock().unwrap();
        if !st.queue.is_empty() {
            TurnEnd::Again
        } else if st.closed {
            TurnEnd::Closed
        } else {
            st.scheduled = false;
            TurnEnd::Idle
        }
    }

    /// Refuses all further pushes; what is already queued stays to be
    /// drained. `None` if it was already closed; otherwise `Some(wake)`,
    /// where `wake` means the owner was idle and is now marked scheduled,
    /// so the caller must put it on the run queue once more to retire it.
    pub fn close(&self) -> Option<bool> {
        let mut st = self.state.lock().unwrap();
        if std::mem::replace(&mut st.closed, true) {
            return None;
        }
        if st.blocked > 0 {
            self.not_full.notify_all();
        }
        Some(!std::mem::replace(&mut st.scheduled, true))
    }

    /// Drops whatever is still queued (a panicked owner's mail) and frees
    /// the buffer (a retired owner's).
    pub fn discard(&self) {
        let mut st = self.state.lock().unwrap();
        st.queue = VecDeque::new();
        self.gauges.set(0);
        if st.blocked > 0 {
            self.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_push_to_idle_owner_wakes_it() {
        let mb = Mailbox::new_scheduled(8, 0u32);
        assert!(!mb.push(1, AtBound::Block).unwrap().wake);
        let mut batch = Vec::new();
        mb.take_batch(8, &mut batch);
        assert_eq!(batch, vec![0, 1]);
        assert_eq!(mb.end_turn(), TurnEnd::Idle);
        let p = mb.push(2, AtBound::Overrun).unwrap();
        assert_eq!(p, Pushed { outcome: PushOutcome::Sent, wake: true });
        assert!(!mb.push(3, AtBound::Overrun).unwrap().wake);
    }

    #[test]
    fn depth_and_hwm_track_pushes_and_pops() {
        let mb = Mailbox::new_scheduled(8, 1u32);
        mb.push(2, AtBound::Block).unwrap();
        assert_eq!(mb.gauges().depth(), 2);
        assert_eq!(mb.gauges().hwm(), 2);
        let mut batch = Vec::new();
        mb.take_batch(1, &mut batch);
        assert_eq!(mb.gauges().depth(), 1);
        assert_eq!(mb.gauges().hwm(), 2, "hwm is sticky");
        assert_eq!(mb.end_turn(), TurnEnd::Again);
    }

    #[test]
    fn bound_refuses_or_overruns_by_sender_kind() {
        let mb = Mailbox::new_scheduled(1, 1u32);
        assert_eq!(mb.push(2, AtBound::Refuse), Err(2));
        let p = mb.push(3, AtBound::Overrun).unwrap();
        assert_eq!(p.outcome, PushOutcome::SentParked);
        assert_eq!(mb.gauges().depth(), 2);
    }

    #[test]
    fn closed_mailbox_drains_then_retires() {
        let mb = Mailbox::new_scheduled(8, 1u32);
        let mut batch = Vec::new();
        mb.take_batch(8, &mut batch);
        assert_eq!(mb.end_turn(), TurnEnd::Idle);
        mb.push(2, AtBound::Block).unwrap();
        assert_eq!(mb.close(), Some(false), "already scheduled by the push");
        assert_eq!(mb.close(), None, "already closed");
        assert_eq!(mb.push(3, AtBound::Block).unwrap().outcome, PushOutcome::Dead);
        assert_eq!(mb.end_turn(), TurnEnd::Again);
        batch.clear();
        mb.take_batch(8, &mut batch);
        assert_eq!(batch, vec![2]);
        assert_eq!(mb.end_turn(), TurnEnd::Closed);
        assert!(!mb.is_open());
    }

    #[test]
    fn full_mailbox_blocks_external_sender_until_drained() {
        let mb = Arc::new(Mailbox::new_scheduled(1, 1u32));
        let tx = Arc::clone(&mb);
        let t = std::thread::spawn(move || tx.push(2, AtBound::Block).unwrap().outcome);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut batch = Vec::new();
        mb.take_batch(8, &mut batch);
        assert_eq!(batch, vec![1]);
        assert_eq!(t.join().unwrap(), PushOutcome::SentParked);
        batch.clear();
        mb.take_batch(8, &mut batch);
        assert_eq!(batch, vec![2]);
    }

    #[test]
    fn close_releases_blocked_sender_as_dead() {
        let mb = Arc::new(Mailbox::new_scheduled(1, 1u32));
        let tx = Arc::clone(&mb);
        let t = std::thread::spawn(move || tx.push(2, AtBound::Block).unwrap().outcome);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(mb.close(), Some(false));
        assert_eq!(t.join().unwrap(), PushOutcome::Dead);
    }
}
