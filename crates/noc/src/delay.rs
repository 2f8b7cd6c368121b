//! Constant-latency FIFO delay lines.
//!
//! Every channel pipeline stage in the fabric (SM→TPC wires, TPC→GPC
//! wires, crossbar traversal) is modelled as a delay line: items become
//! visible to the downstream consumer a fixed number of cycles after they
//! were pushed, in FIFO order.

use gnc_common::Cycle;
use std::collections::VecDeque;

/// A FIFO whose items become poppable `latency` cycles after insertion.
///
/// Because the latency is constant, insertion order equals readiness
/// order, so a plain deque suffices.
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    latency: u32,
    /// Readiness of the current front item, `Cycle::MAX` when empty.
    /// Polling consumers probe their delay lines every cycle and mostly
    /// miss; this keeps the miss path to a single compare instead of a
    /// deque front load.
    next_ready: Cycle,
    items: VecDeque<(Cycle, T)>,
}

impl<T> DelayLine<T> {
    /// Creates a delay line with the given latency in cycles.
    pub fn new(latency: u32) -> Self {
        Self {
            latency,
            next_ready: Cycle::MAX,
            items: VecDeque::new(),
        }
    }

    /// The configured latency.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Inserts an item at `now`; it becomes poppable at
    /// `now + latency`.
    pub fn push(&mut self, now: Cycle, item: T) {
        let ready = now + Cycle::from(self.latency);
        if self.items.is_empty() {
            self.next_ready = ready;
        }
        self.items.push_back((ready, item));
    }

    /// Inserts an item that becomes poppable at the explicit cycle
    /// `ready_at` (used by stages with data-dependent service times).
    ///
    /// # Panics
    ///
    /// Panics if `ready_at` is earlier than the readiness of the current
    /// tail, which would violate FIFO order. The check is a single
    /// compare, so it stays on in release builds — a delay line that
    /// reorders readiness would silently corrupt every latency the
    /// simulator measures.
    pub fn push_ready_at(&mut self, ready_at: Cycle, item: T) {
        assert!(
            self.items.back().is_none_or(|(t, _)| *t <= ready_at),
            "push_ready_at must preserve FIFO readiness order"
        );
        if self.items.is_empty() {
            self.next_ready = ready_at;
        }
        self.items.push_back((ready_at, item));
    }

    /// A reference to the front item if it is ready at `now`.
    pub fn peek_ready(&self, now: Cycle) -> Option<&T> {
        if now < self.next_ready {
            return None;
        }
        self.items.front().map(|(_, item)| item)
    }

    /// Removes and returns the front item if it is ready at `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if now < self.next_ready {
            return None;
        }
        let (_, item) = self.items.pop_front()?;
        self.next_ready = self.items.front().map_or(Cycle::MAX, |(ready, _)| *ready);
        Some(item)
    }

    /// The cycle at which the front item becomes ready, if any.
    ///
    /// Because readiness is FIFO-ordered, this is the earliest cycle at
    /// which *any* item in the line becomes poppable — the delay line's
    /// next event for fast-forwarding schedulers.
    pub fn next_ready_cycle(&self) -> Option<Cycle> {
        self.items.front().map(|(ready, _)| *ready)
    }

    /// The `index`-th item in FIFO order (front is 0), ready or not.
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.items.get(index).map(|(_, item)| item)
    }

    /// Mutable access to the `index`-th item; changing its readiness is
    /// impossible, so FIFO order is kept.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.items.get_mut(index).map(|(_, item)| item)
    }

    /// Number of items in flight (ready or not).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the delay line holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops every in-flight item, keeping the allocation and latency —
    /// the in-place reset used by machine reuse.
    pub fn clear(&mut self) {
        self.next_ready = Cycle::MAX;
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_age_before_becoming_ready() {
        let mut line = DelayLine::new(3);
        line.push(10, "a");
        assert!(line.peek_ready(10).is_none());
        assert!(line.peek_ready(12).is_none());
        assert_eq!(line.peek_ready(13), Some(&"a"));
        assert_eq!(line.pop_ready(13), Some("a"));
        assert!(line.is_empty());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut line = DelayLine::new(1);
        line.push(0, 1);
        line.push(0, 2);
        line.push(1, 3);
        assert_eq!(line.pop_ready(1), Some(1));
        assert_eq!(line.pop_ready(1), Some(2));
        assert_eq!(line.pop_ready(1), None); // item 3 ready at 2
        assert_eq!(line.pop_ready(2), Some(3));
    }

    #[test]
    fn zero_latency_is_immediate() {
        let mut line = DelayLine::new(0);
        line.push(5, "x");
        assert_eq!(line.pop_ready(5), Some("x"));
    }

    #[test]
    fn explicit_ready_time() {
        let mut line = DelayLine::new(2);
        line.push_ready_at(20, "late");
        assert!(line.pop_ready(19).is_none());
        assert_eq!(line.pop_ready(20), Some("late"));
    }

    #[test]
    fn get_indexes_in_fifo_order() {
        let mut line = DelayLine::new(0);
        line.push_ready_at(4, "a");
        line.push_ready_at(9, "b");
        assert_eq!(line.get(0), Some(&"a"));
        assert_eq!(line.get(1), Some(&"b"));
        assert_eq!(line.get(2), None);
        assert_eq!(line.pop_ready(4), Some("a"));
        assert_eq!(line.get(0), Some(&"b"));
    }

    #[test]
    fn pop_does_not_skip_unready_head() {
        let mut line = DelayLine::new(5);
        line.push(0, "head");
        line.push(0, "tail");
        assert_eq!(line.len(), 2);
        assert!(line.pop_ready(4).is_none());
        assert_eq!(line.len(), 2);
    }
}
