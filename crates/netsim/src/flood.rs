//! The flooding primitive's bookkeeping.
//!
//! The paper's `flood` primitive: the source sends the message to its
//! neighbors; every other node forwards it *upon first receiving it*, and a
//! second flooded message with the same content is not forwarded again.
//! [`FloodState`] implements the dedup set protocols embed to realize this:
//! call [`FloodState::first_sighting`] on each incoming flood payload, and
//! re-broadcast only when it returns `true`.
//!
//! Flood identity is the payload value itself (source id + body); the
//! immediate-sender id attached to every broadcast is *not* part of the
//! identity, so copies arriving over different links deduplicate.

use std::collections::HashSet;
use std::hash::Hash;

/// Dedup set for flooded payloads of key type `K`.
///
/// # Examples
///
/// ```
/// use netsim::FloodState;
/// let mut fs: FloodState<(u32, &str)> = FloodState::new();
/// assert!(fs.first_sighting((7, "psum")));   // forward this one
/// assert!(!fs.first_sighting((7, "psum")));  // duplicate: drop
/// assert!(fs.first_sighting((8, "psum")));   // different source: forward
/// assert!(fs.seen(&(7, "psum")));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FloodState<K> {
    seen: HashSet<K>,
}

impl<K: Eq + Hash + Clone> FloodState<K> {
    /// An empty dedup set.
    pub fn new() -> Self {
        FloodState { seen: HashSet::new() }
    }

    /// Registers `key`; returns `true` iff it had not been seen before
    /// (i.e. the caller should act on it and forward it).
    pub fn first_sighting(&mut self, key: K) -> bool {
        self.seen.insert(key)
    }

    /// Marks `key` as seen without signaling (used by a flood *source*,
    /// which must not re-forward its own message).
    pub fn mark_seen(&mut self, key: K) {
        self.seen.insert(key);
    }

    /// True iff `key` has been seen (as source or receiver).
    pub fn seen(&self, key: &K) -> bool {
        self.seen.contains(key)
    }

    /// Number of distinct flood payloads seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True iff nothing has been seen.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Clears all state (protocols reuse one set per execution).
    pub fn clear(&mut self) {
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_behavior() {
        let mut fs = FloodState::new();
        assert!(fs.is_empty());
        assert!(fs.first_sighting(1u32));
        assert!(!fs.first_sighting(1u32));
        assert!(fs.first_sighting(2u32));
        assert_eq!(fs.len(), 2);
        assert!(fs.seen(&1));
        assert!(!fs.seen(&3));
    }

    #[test]
    fn mark_seen_suppresses_forwarding() {
        let mut fs = FloodState::new();
        fs.mark_seen("mine");
        assert!(!fs.first_sighting("mine"));
    }

    #[test]
    fn clear_resets() {
        let mut fs = FloodState::new();
        fs.mark_seen(9u8);
        fs.clear();
        assert!(fs.is_empty());
        assert!(fs.first_sighting(9u8));
    }
}
